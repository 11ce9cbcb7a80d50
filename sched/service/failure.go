package service

import (
	"context"
	"sync"
	"time"
)

// Failure-detector verdicts for a peer, as reported in NodeView.State.
const (
	peerAlive   = "alive"
	peerSuspect = "suspect" // missed probes, not yet declared dead
	peerDead    = "dead"
)

// peerState is the detector's view of one peer.
type peerState struct {
	addr     string
	misses   int
	status   string
	inflight bool // a probe for this peer is currently running
}

// detector is the background failure detector driving failover: it
// probes every peer's /healthz on a fixed interval and escalates K
// consecutive misses alive → suspect → dead. Transitions into and out
// of dead invoke the cluster's failover hooks (adopt replicated jobs /
// reconcile with the returned owner). Probes bypass the circuit
// breakers on purpose — the detector is how a dead verdict gets
// revisited, so it must keep looking at peers nobody else talks to.
type detector struct {
	c     *cluster
	mu    sync.Mutex
	peers map[string]*peerState // token -> state
	stop  chan struct{}
	once  sync.Once
}

func newDetector(c *cluster) *detector {
	d := &detector{c: c, peers: make(map[string]*peerState), stop: make(chan struct{})}
	for token, addr := range c.addrs {
		if token != c.selfToken {
			d.peers[token] = &peerState{addr: addr, status: peerAlive}
		}
	}
	return d
}

func (d *detector) run() {
	t := time.NewTicker(d.c.s.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			d.tick()
		case <-d.stop:
			return
		}
	}
}

// tick launches one probe per peer that has none in flight. Probes run
// concurrently and report back asynchronously, so one slow peer never
// delays the verdict on another.
func (d *detector) tick() {
	d.mu.Lock()
	for token, p := range d.peers {
		if p.inflight {
			continue
		}
		p.inflight = true
		go func(token, addr string) {
			d.report(token, d.c.probe(context.Background(), addr))
		}(token, p.addr)
	}
	d.mu.Unlock()
}

// report folds one probe outcome into the peer's state, firing the
// cluster's failover hooks on transitions into and out of dead. The
// hooks run outside the detector lock — adoption enqueues jobs and
// reconciliation sends HTTP, neither of which may block probing.
func (d *detector) report(token string, ok bool) {
	d.mu.Lock()
	p, present := d.peers[token]
	if !present {
		d.mu.Unlock()
		return
	}
	p.inflight = false
	var died, recovered bool
	if ok {
		recovered = p.status == peerDead
		p.misses = 0
		p.status = peerAlive
	} else {
		p.misses++
		d.c.s.metrics.ProbeFailures.Add(1)
		if p.misses >= d.c.s.cfg.ProbeMisses {
			died = p.status != peerDead
			p.status = peerDead
		} else if p.status != peerDead {
			p.status = peerSuspect
		}
	}
	d.mu.Unlock()
	if died {
		d.c.onPeerDead(token)
	}
	if recovered {
		d.c.onPeerRecovered(token)
	}
}

// dead reports whether the detector currently considers token dead.
func (d *detector) dead(token string) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	p, ok := d.peers[token]
	return ok && p.status == peerDead
}

// stateOf returns the detector's verdict on member token. This node is
// always alive from its own perspective.
func (d *detector) stateOf(token string) string {
	d.mu.Lock()
	defer d.mu.Unlock()
	if p, ok := d.peers[token]; ok {
		return p.status
	}
	return peerAlive
}

func (d *detector) close() {
	d.once.Do(func() { close(d.stop) })
}
