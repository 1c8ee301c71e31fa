// Package orb implements the PARDIS Object Request Broker core: the
// client-side invocation engine (connection caching, request/reply
// matching, cancellation, locate queries) and the server-side object
// adapter (endpoint listeners, request dispatch, reply writing), plus
// the landing of multi-port block transfers in registered destination
// windows that distinguishes PARDIS from a conventional ORB.
//
// The ORB is deliberately mechanism-only: argument marshaling lives in
// compiler-generated stubs (package idlgen) and the SPMD collective
// logic lives in package spmd. Both sides of an SPMD object — client
// threads and server threads — each hold a Client and/or Server from
// this package.
package orb

import (
	"errors"
	"time"

	"pardis/internal/telemetry"
)

// Errors returned by ORB operations.
var (
	ErrClosed         = errors.New("orb: closed")
	ErrCanceled       = errors.New("orb: request canceled")
	ErrConnectionLost = errors.New("orb: connection lost")
	ErrTooManyBlocks  = errors.New("orb: too many unmatched block transfers buffered")
	// ErrPendingBlockBytes means the byte budget for unmatched block
	// transfers is exhausted: a peer pushed more early-block payload
	// than the router is willing to buffer before a window registers.
	ErrPendingBlockBytes = errors.New("orb: unmatched block-transfer byte budget exceeded")
	// ErrDeadlineExpired wraps a TIMEOUT system exception: the server
	// shed the request because its propagated deadline had already
	// passed. Retrying cannot help — the caller's budget is gone — so
	// the retry layer returns it immediately instead of failing over.
	ErrDeadlineExpired = errors.New("orb: request deadline expired at server")
	// ErrServerClosed means the server announced an orderly shutdown
	// (MsgCloseConnection): it processed nothing further on this
	// connection, so pending invocations are always safe to re-issue
	// at another endpoint.
	ErrServerClosed = errors.New("orb: server closed connection")
	// ErrUnreachable marks dial-stage failures: the request never
	// left this process, so retrying elsewhere is always safe.
	ErrUnreachable = errors.New("orb: endpoint unreachable")
	// ErrTransient wraps a TRANSIENT system exception: the server
	// explicitly asked the client to retry (e.g. it is draining).
	ErrTransient = errors.New("orb: transient server condition")
	// ErrForwardCycle reports a LOCATION_FORWARD loop (an endpoint
	// forwarded back to a location already visited).
	ErrForwardCycle = errors.New("orb: location forward cycle")
)

// Defaults for the pending-block buffer (blocks race the invocation
// header across separate connections, so a router must buffer early
// arrivals — but only so much, for so long).
const (
	// defaultMaxPendingBlocks bounds how many block transfers may be
	// buffered while waiting for their window to register.
	defaultMaxPendingBlocks = 4096
	// defaultMaxPendingBytes bounds the payload bytes those buffered
	// blocks may hold in total, so a peer cannot park 4096 maximal
	// frames (a multi-GiB hostage) behind an invocation that never
	// registers.
	defaultMaxPendingBytes = 64 << 20
	// defaultPendingTTL is how long an invocation's early blocks may
	// sit without any new arrival before a sweep reclaims them — the
	// signature of a client that died between sending blocks and
	// issuing (or completing) the invocation.
	defaultPendingTTL = 30 * time.Second
	// defaultPendingSweepInterval is how often a Server's background
	// sweeper scans for abandoned pending buffers.
	defaultPendingSweepInterval = 5 * time.Second
)

// PendingPolicy bounds the early-block pending buffer of a Server:
// how many blocks and payload bytes may wait for a window, and how
// long a window's buffer may go without traffic before the periodic
// sweep reclaims it. Zero fields take the defaults above.
type PendingPolicy struct {
	MaxBlocks     int
	MaxBytes      int
	TTL           time.Duration
	SweepInterval time.Duration
}

// DefaultPendingPolicy returns the default pending-buffer bounds.
func DefaultPendingPolicy() PendingPolicy {
	return PendingPolicy{
		MaxBlocks:     defaultMaxPendingBlocks,
		MaxBytes:      defaultMaxPendingBytes,
		TTL:           defaultPendingTTL,
		SweepInterval: defaultPendingSweepInterval,
	}
}

func (p PendingPolicy) withDefaults() PendingPolicy {
	d := DefaultPendingPolicy()
	if p.MaxBlocks <= 0 {
		p.MaxBlocks = d.MaxBlocks
	}
	if p.MaxBytes <= 0 {
		p.MaxBytes = d.MaxBytes
	}
	if p.TTL <= 0 {
		p.TTL = d.TTL
	}
	if p.SweepInterval <= 0 {
		p.SweepInterval = d.SweepInterval
	}
	return p
}

// Pending-buffer instruments are process-wide (no labels), interned
// once: routers account deltas so the gauge stays correct across any
// number of servers in the process.
var (
	pendingBlockBytes     = telemetry.Default.Gauge("pardis_orb_pending_blocks_bytes")
	pendingBlockReclaimed = telemetry.Default.Counter("pardis_orb_pending_reclaimed_total")
)
