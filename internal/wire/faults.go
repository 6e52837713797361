package wire

import "time"

// FrameFault directs the transport seam of a served counting network for
// one frame: the server consults its installed FrameFaults once per frame
// read (inbound) and once per frame written (outbound), so a seeded schedule
// can drop, delay or duplicate traffic without touching the kernel or the
// protocol code. The zero value is "deliver normally".
type FrameFault struct {
	// Drop discards the frame: an inbound request is never processed, an
	// outbound response is never written. Clients see the loss as a
	// deadline expiry and retry.
	Drop bool
	// Duplicate processes an inbound frame twice, or writes an outbound
	// frame twice — at-least-once delivery. Duplicate responses are
	// discarded by the client's id matching; duplicate increment requests
	// burn a counter value (a gap the drop/duplicate accounting bounds),
	// but never create a duplicate among observed values.
	Duplicate bool
	// Delay stalls the frame before it is processed or written.
	Delay time.Duration
}

// FrameFaults supplies per-frame fault directives to a server's transport
// seam. conn is the server-assigned connection ordinal, inbound
// distinguishes requests from responses, and seq counts frames in that
// direction on that connection, so a seeded plan can be deterministic per
// connection regardless of cross-connection interleaving. Implementations
// must be safe for concurrent use across connections.
type FrameFaults interface {
	Frame(conn int, inbound bool, seq int) FrameFault
}
