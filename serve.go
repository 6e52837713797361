package countingnet

import (
	"repro/internal/client"
	"repro/internal/flightrec"
	"repro/internal/network"
	"repro/internal/server"
	"repro/internal/wire"
)

// Serving layer (packages wire, server, client): the compiled network as
// a network service, with the consistency mode as a per-request knob.
type (
	// ConsistencyMode selects SC or LIN per request on the wire.
	ConsistencyMode = wire.Mode
	// WireFrame is one decoded protocol frame.
	WireFrame = wire.Frame
	// FrameFault is one injected transport fault decision.
	FrameFault = wire.FrameFault
	// FrameFaults decides transport faults at the server's frame seam.
	FrameFaults = wire.FrameFaults
	// NetworkShape is a network's topology fingerprint (width, sinks,
	// balancers, depth), shared by specs, runtimes and the wire protocol.
	NetworkShape = network.Shape
	// Server serves a compiled network over TCP/UDP.
	Server = server.Server
	// ServerBackend is the counting object a Server serves: a compiled
	// Network, or a cluster node's block Minter (cmd/countd -cluster-listen).
	ServerBackend = server.Backend
	// ServerOptions tunes the server's queues, timeouts and fault seam.
	ServerOptions = server.Options
	// ServerFlushPolicy tunes the response writer's adaptive flush batching.
	ServerFlushPolicy = server.FlushPolicy
	// ServerStats is the serving layer's metrics sink.
	ServerStats = server.Stats
	// ServerSnapshot is a point-in-time copy of the server's metrics.
	ServerSnapshot = server.Snapshot
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
	// FlightEvent is one parsed span event from a merged Chrome timeline.
	FlightEvent = flightrec.ChromeEvent
)

const (
	// ModeSC requests sequentially consistent (coalescible) increments.
	ModeSC = wire.ModeSC
	// ModeLIN requests linearizable (serialized) increments.
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
