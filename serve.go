package countingnet

import (
	"repro/internal/client"
	"repro/internal/flightrec"
	"repro/internal/server"
	"repro/internal/wire"
)

// Serving layer (packages wire, server, client): the compiled network as
// a network service, with the consistency mode as a per-request knob.
type (
	// ConsistencyMode selects SC or LIN per request on the wire.
	ConsistencyMode = wire.Mode
	// ServerBackend is the counting object a Server serves: a compiled
	// Network, or a cluster node's block Minter (cmd/countd -node-id).
	ServerBackend = server.Backend
	// ServerOptions tunes the server's queues, timeouts and fault seam.
	ServerOptions = server.Options
	// RemoteCounter is the client: a Counter/CtxCounter/BatchCounter over
	// the wire protocol.
	RemoteCounter = client.Client
	// RemoteOptions tunes the client pool, window, mode and retries.
	RemoteOptions = client.Options
	// FlightRecorder holds the stage spans and anomaly black box of
	// sampled requests (ServerOptions.Flight / RemoteOptions.Flight).
	FlightRecorder = flightrec.Recorder
	// FlightSpan is one recorded stage of one sampled request.
	FlightSpan = flightrec.Span
	// FlightPart is one side's span set in a merged Chrome timeline.
	FlightPart = flightrec.Part
	// FlightDump is the flight recorder's black-box artifact shape.
	FlightDump = flightrec.Dump
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
	// ParseConsistencyMode parses "sc" or "lin".
	ParseConsistencyMode = wire.ParseMode
	// NewFlightRecorder builds a flight recorder keeping roughly the last
	// capacity spans (<= 0 returns the inert nil recorder).
	NewFlightRecorder = flightrec.New
	// WriteFlightChrome merges client/server span parts onto one Chrome
	// trace-event timeline (chrome://tracing, Perfetto).
	WriteFlightChrome = flightrec.WriteChrome
	// ReadFlightChrome parses a merged timeline back into its span events.
	ReadFlightChrome = flightrec.ReadChrome
)
