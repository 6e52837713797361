package countingnet

import (
	"repro/internal/client"
	"repro/internal/server"
	"repro/internal/wire"
)

// Serving layer (packages wire, server, client): the compiled network as
// a network service, with the consistency mode as a per-request knob.
type (
	// ConsistencyMode selects SC or LIN per request on the wire.
	ConsistencyMode = wire.Mode
	// ServerOptions tunes the server's queues, timeouts and fault seam.
	ServerOptions = server.Options
	// RemoteCounter is the client: a Counter/CtxCounter/BatchCounter over
	// the wire protocol.
	RemoteCounter = client.Client
	// RemoteOptions tunes the client pool, window, mode and retries.
	RemoteOptions = client.Options
)

const (
	// ModeSC requests sequentially consistent increments.
	ModeSC = wire.ModeSC
	// ModeLIN requests linearizable increments.
	ModeLIN = wire.ModeLIN
)

var (
	// NewServer builds a server for a Backend (e.g. a compiled Network).
	NewServer = server.New
	// NewServerStats builds the server's metrics sink.
	NewServerStats = server.NewStats
	// DialCounter connects a RemoteCounter to a serving address.
	DialCounter = client.Dial
)
