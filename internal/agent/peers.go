package agent

import (
	"context"
	"log/slog"
	"sync"
	"time"

	"pardis/internal/telemetry"
)

var (
	peerSyncsOK    = telemetry.Default.Counter("pardis_agent_peer_syncs_total", "result", "ok")
	peerSyncErrors = telemetry.Default.Counter("pardis_agent_peer_syncs_total", "result", "error")
	peerAdopted    = telemetry.Default.Counter("pardis_agent_peer_rows_adopted_total")
	peerRemoved    = telemetry.Default.Counter("pardis_agent_peer_rows_tombstoned_total")
	peerGauge      = telemetry.Default.Gauge("pardis_agent_peers")
	peerDivergence = telemetry.Default.Gauge("pardis_agent_peer_divergence")
)

// PeersConfig configures an agent's peer-sync loop.
type PeersConfig struct {
	// Table is the local replica table snapshots are taken from and
	// peer snapshots merged into.
	Table *Table
	// Clients talk to the peer agents.
	Clients []*Client
	// Interval is the exchange cadence — by convention the agent's
	// sweep interval, so a partitioned-and-healed peer converges
	// within one sweep instead of one TTL (default: half the default
	// heartbeat interval, the standard sweep cadence).
	Interval time.Duration
	// RPCTimeout bounds each sync exchange (default: the interval,
	// clamped to [100ms, 2s]).
	RPCTimeout time.Duration
}

// PeerStatus is one peer's liveness as seen from this agent, served
// on /healthz.
type PeerStatus struct {
	Endpoint string `json:"endpoint"`
	// Live is true when the most recent exchange succeeded.
	Live bool `json:"live"`
	// SinceSync is the time since the last successful exchange
	// (negative when none has succeeded yet). JSON carries it in
	// nanoseconds, time.Duration's native unit.
	SinceSync time.Duration `json:"since_sync_ns"`
	// LastErr is the most recent exchange error ("" when none).
	LastErr string `json:"last_err,omitempty"`
	// RemoteRows is the peer's replica-row count at the last
	// successful exchange.
	RemoteRows int `json:"remote_rows"`
	// Divergence is |local rows − remote rows| at the last successful
	// exchange — a coarse convergence signal: two healthy peers fed
	// by the same heartbeat fan-out should sit at zero.
	Divergence int `json:"divergence"`
}

// Peers keeps a replicated agent's table converged with its peers: a
// lightweight snapshot exchange per peer at sweep cadence, plus one
// immediately at Start so a freshly (re)started agent catches up
// within one round instead of one TTL. Exchanges are symmetric — the
// request carries our snapshot, the reply the peer's (taken after it
// merged ours) — so one round converges both sides. Peer failures are
// counted and logged, never fatal: heartbeat fan-out alone keeps each
// reachable agent correct; peer sync only closes asymmetric
// partitions faster.
type Peers struct {
	cfg  PeersConfig
	done chan struct{}
	wg   sync.WaitGroup

	mu      sync.Mutex
	started bool
	stopped bool
	status  []PeerStatus // parallel to cfg.Clients
	lastOK  []time.Time  // last successful exchange per peer
}

// NewPeers returns a peer-sync loop over the given peers; call Start
// to begin exchanging.
func NewPeers(cfg PeersConfig) *Peers {
	if cfg.Interval <= 0 {
		cfg.Interval = DefaultHeartbeatInterval / 2
	}
	if cfg.RPCTimeout <= 0 {
		cfg.RPCTimeout = cfg.Interval
		if cfg.RPCTimeout < 100*time.Millisecond {
			cfg.RPCTimeout = 100 * time.Millisecond
		}
		if cfg.RPCTimeout > 2*time.Second {
			cfg.RPCTimeout = 2 * time.Second
		}
	}
	p := &Peers{
		cfg:    cfg,
		done:   make(chan struct{}),
		status: make([]PeerStatus, len(cfg.Clients)),
		lastOK: make([]time.Time, len(cfg.Clients)),
	}
	for i, c := range cfg.Clients {
		p.status[i] = PeerStatus{Endpoint: c.Endpoint(), SinceSync: -1}
	}
	return p
}

// Start launches the sync loop (idempotent) with an immediate first
// round.
func (p *Peers) Start() {
	p.mu.Lock()
	if p.started || p.stopped {
		p.mu.Unlock()
		return
	}
	p.started = true
	p.mu.Unlock()
	peerGauge.Add(int64(len(p.cfg.Clients)))
	p.wg.Add(1)
	go p.loop()
}

// Stop ends the sync loop. Idempotent.
func (p *Peers) Stop() {
	p.mu.Lock()
	if p.stopped {
		p.mu.Unlock()
		return
	}
	p.stopped = true
	started := p.started
	p.mu.Unlock()
	if started {
		close(p.done)
		p.wg.Wait()
		peerGauge.Add(-int64(len(p.cfg.Clients)))
	}
}

func (p *Peers) loop() {
	defer p.wg.Done()
	p.round()
	tick := time.NewTicker(p.cfg.Interval)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			p.round()
		case <-p.done:
			return
		}
	}
}

// round exchanges snapshots with every peer concurrently, each
// bounded by RPCTimeout, then refreshes the divergence gauge.
func (p *Peers) round() {
	local := p.cfg.Table.Snapshot()
	var wg sync.WaitGroup
	for i, c := range p.cfg.Clients {
		wg.Add(1)
		go func(i int, c *Client) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), p.cfg.RPCTimeout)
			remote, err := c.Sync(ctx, local)
			cancel()
			now := time.Now()
			if err != nil {
				peerSyncErrors.Inc()
				if telemetry.LogEnabled(slog.LevelWarn) {
					telemetry.Logger().Warn("agent peer sync failed",
						"peer", c.Endpoint(), "err", err)
				}
				p.mu.Lock()
				p.status[i].Live = false
				p.status[i].LastErr = err.Error()
				p.mu.Unlock()
				return
			}
			adopted, removed := p.cfg.Table.Merge(remote)
			peerSyncsOK.Inc()
			if adopted > 0 {
				peerAdopted.Add(uint64(adopted))
			}
			if removed > 0 {
				peerRemoved.Add(uint64(removed))
			}
			_, localRows := p.cfg.Table.Size()
			div := localRows - len(remote.Entries)
			if div < 0 {
				div = -div
			}
			p.mu.Lock()
			p.status[i] = PeerStatus{
				Endpoint:   c.Endpoint(),
				Live:       true,
				SinceSync:  0,
				RemoteRows: len(remote.Entries),
				Divergence: div,
			}
			p.lastOK[i] = now
			p.mu.Unlock()
		}(i, c)
	}
	wg.Wait()
	// The divergence gauge holds the worst known row-count delta
	// across peers; a dead peer keeps its last measured value (its
	// liveness is reported separately on /healthz).
	worst := 0
	p.mu.Lock()
	for _, st := range p.status {
		if st.Divergence > worst {
			worst = st.Divergence
		}
	}
	p.mu.Unlock()
	peerDivergence.Set(int64(worst))
}

// Status reports each peer's liveness, last error and divergence, in
// configured order.
func (p *Peers) Status() []PeerStatus {
	now := time.Now()
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]PeerStatus, len(p.status))
	copy(out, p.status)
	for i := range out {
		if t := p.lastOK[i]; !t.IsZero() {
			out[i].SinceSync = now.Sub(t)
		} else {
			out[i].SinceSync = -1
		}
	}
	return out
}
