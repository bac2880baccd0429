package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"topoopt/internal/shard"
)

// Cluster header names. ForwardedHeader is the one-hop loop guard: a
// daemon only forwards requests that do not already carry it, so a
// forwarded request is always served where it lands — even when ring
// views momentarily disagree (a peer marked down on one daemon but not
// another), the worst case is one extra local compute, never a proxy
// loop. OwnerHeader tells the client which peer actually computed the
// response.
const (
	ForwardedHeader = "X-Topoopt-Forwarded"
	OwnerHeader     = "X-Topoopt-Owner"
)

// ClusterConfig joins a Service to a static sharded cluster. Peers is
// the full membership — every daemon gets the same list — and Self must
// be one of them; ownership of the fingerprint space is then a pure
// function of (Peers, VNodes), identical on every member.
type ClusterConfig struct {
	// Self is this daemon's own base URL as it appears in Peers.
	Self string
	// Peers is the full member list (including Self), as base URLs
	// reachable from this daemon, e.g. http://10.0.0.1:7180.
	Peers []string
	// VNodes is the virtual-node count per member on the hash ring
	// (default shard.DefaultVNodes).
	VNodes int
	// ProbeInterval is the health-probe period (default 1s). Probes GET
	// each peer's /healthz; a failed probe — or a failed forward — marks
	// the peer down, and requests it owns are served locally until a
	// probe succeeds again.
	ProbeInterval time.Duration
	// ProbeTimeout bounds one probe (default min(ProbeInterval, 1s)).
	ProbeTimeout time.Duration
	// Client overrides the forwarding HTTP client (tests). The default
	// has a 2s dial timeout and no overall timeout: plan computations are
	// legitimately slow, and the request context bounds the hop.
	Client *http.Client
}

// normalize validates the config and canonicalizes member URLs
// (trailing slashes stripped, so "http://a:1/" and "http://a:1" are the
// same member).
func (c *ClusterConfig) normalize() error {
	c.Self = strings.TrimRight(strings.TrimSpace(c.Self), "/")
	if c.Self == "" {
		return errors.New("serve: cluster: Self must be set")
	}
	peers := make([]string, 0, len(c.Peers))
	selfListed := false
	for _, p := range c.Peers {
		p = strings.TrimRight(strings.TrimSpace(p), "/")
		if p == "" {
			continue
		}
		if p == c.Self {
			selfListed = true
		}
		peers = append(peers, p)
	}
	if len(peers) == 0 {
		return errors.New("serve: cluster: Peers must list every member")
	}
	if !selfListed {
		return fmt.Errorf("serve: cluster: Self %q is not in the peer list %v", c.Self, peers)
	}
	c.Peers = peers
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = time.Second
	}
	if c.ProbeTimeout <= 0 || c.ProbeTimeout > c.ProbeInterval {
		c.ProbeTimeout = c.ProbeInterval
		if c.ProbeTimeout > time.Second {
			c.ProbeTimeout = time.Second
		}
	}
	return nil
}

// peerState is one remote member's health as seen from this daemon.
// Peers start healthy (optimistic: the first forward finds out) and are
// marked down by a failed probe or a failed forward; only a successful
// probe re-admits them.
type peerState struct {
	healthy   bool
	lastProbe time.Time
	lastErr   string
}

// cluster is the sharding runtime attached to a Service by
// EnableCluster: the ring, the forwarding client, and the probe loop.
type cluster struct {
	self   string
	ring   *shard.Ring
	client *http.Client // forwarding; context-bounded, no overall timeout
	probeC *http.Client // probes; short overall timeout
	stop   chan struct{}
	done   chan struct{}

	mu    sync.Mutex
	peers map[string]*peerState // remote members only
}

func newCluster(cfg ClusterConfig) (*cluster, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	ring, err := shard.New(cfg.Peers, cfg.VNodes)
	if err != nil {
		return nil, err
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{Transport: &http.Transport{
			DialContext:         (&net.Dialer{Timeout: 2 * time.Second}).DialContext,
			MaxIdleConns:        64,
			MaxIdleConnsPerHost: 16,
			IdleConnTimeout:     60 * time.Second,
		}}
	}
	c := &cluster{
		self:   cfg.Self,
		ring:   ring,
		client: client,
		probeC: &http.Client{Timeout: cfg.ProbeTimeout, Transport: client.Transport},
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
		peers:  make(map[string]*peerState),
	}
	for _, m := range ring.Members() {
		if m != cfg.Self {
			c.peers[m] = &peerState{healthy: true}
		}
	}
	go c.probeLoop(cfg.ProbeInterval)
	return c, nil
}

func (c *cluster) close() {
	close(c.stop)
	<-c.done
}

// owner returns the ring owner of fp and whether that owner is a remote
// peer currently believed healthy (i.e. whether to forward).
func (c *cluster) owner(fp string) (string, bool) {
	o := c.ring.Owner(fp)
	if o == c.self {
		return o, false
	}
	c.mu.Lock()
	st := c.peers[o]
	healthy := st != nil && st.healthy
	c.mu.Unlock()
	return o, healthy
}

// markDown records a failed forward or probe. The peer stays down until
// a probe succeeds, so at most one request per probe interval pays the
// failed-connect latency.
func (c *cluster) markDown(peer string, err error) {
	c.mu.Lock()
	if st := c.peers[peer]; st != nil {
		st.healthy = false
		st.lastErr = err.Error()
	}
	c.mu.Unlock()
}

func (c *cluster) probeLoop(every time.Duration) {
	defer close(c.done)
	c.probeAll()
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-t.C:
			c.probeAll()
		}
	}
}

func (c *cluster) probeAll() {
	c.mu.Lock()
	peers := make([]string, 0, len(c.peers))
	for p := range c.peers {
		peers = append(peers, p)
	}
	c.mu.Unlock()
	for _, p := range peers {
		healthy, perr := c.probeOne(p)
		c.mu.Lock()
		if st := c.peers[p]; st != nil {
			st.healthy = healthy
			st.lastProbe = time.Now()
			if perr != nil {
				st.lastErr = perr.Error()
			} else {
				st.lastErr = ""
			}
		}
		c.mu.Unlock()
	}
}

func (c *cluster) probeOne(peer string) (bool, error) {
	resp, err := c.probeC.Get(peer + "/healthz")
	if err != nil {
		return false, err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return false, fmt.Errorf("healthz returned %d", resp.StatusCode)
	}
	return true, nil
}

// ClusterMember is one row of the GET /v1/cluster membership table.
type ClusterMember struct {
	Name    string `json:"name"`
	Self    bool   `json:"self,omitempty"`
	Healthy bool   `json:"healthy"`
	// Share is the member's fraction of the fingerprint space.
	Share float64 `json:"share"`
	// LastProbeMs is milliseconds since this daemon last probed the
	// peer (absent for self and before the first probe completes).
	LastProbeMs int64  `json:"last_probe_ms,omitempty"`
	LastError   string `json:"last_error,omitempty"`
	// Forwarded / ForwardFallbacks count requests this daemon proxied to
	// the peer and proxy attempts that failed over to local compute.
	Forwarded        int64 `json:"forwarded"`
	ForwardFallbacks int64 `json:"forward_fallbacks"`
}

// ClusterResponse is the GET /v1/cluster response body. On an unsharded
// daemon it is {"enabled": false}.
type ClusterResponse struct {
	Enabled bool            `json:"enabled"`
	Self    string          `json:"self,omitempty"`
	VNodes  int             `json:"vnodes,omitempty"`
	Members []ClusterMember `json:"members,omitempty"`
}

// members builds the /v1/cluster membership table: every ring member
// with its ownership share and, for remote peers, probe-derived health
// and this daemon's forwarding counters toward it.
func (c *cluster) members(met *metrics) []ClusterMember {
	shares := c.ring.Shares()
	names := c.ring.Members()
	sort.Strings(names)
	out := make([]ClusterMember, 0, len(names))
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, n := range names {
		m := ClusterMember{
			Name:             n,
			Self:             n == c.self,
			Healthy:          true,
			Share:            shares[n],
			Forwarded:        met.forwarded.get(n),
			ForwardFallbacks: met.forwardFail.get(n),
		}
		if st := c.peers[n]; st != nil {
			m.Healthy = st.healthy
			m.LastError = st.lastErr
			if !st.lastProbe.IsZero() {
				m.LastProbeMs = time.Since(st.lastProbe).Milliseconds()
			}
		}
		out = append(out, m)
	}
	return out
}

// EnableCluster joins the service to a sharded cluster. Call it after
// New and before serving traffic: requests whose fingerprint hashes to
// another member are proxied there (one hop max), /v1/cluster starts
// reporting membership, and per-peer forwarding counters appear in
// /metrics. The probe loop stops when the service is closed.
func (s *Service) EnableCluster(cfg ClusterConfig) error {
	c, err := newCluster(cfg)
	if err != nil {
		return err
	}
	remote := make([]string, 0, len(c.peers))
	for p := range c.peers {
		remote = append(remote, p)
	}
	s.met.forwarded, s.met.forwardFail = newKeyed(remote), newKeyed(remote)
	if old := s.cluster.Swap(c); old != nil {
		old.close()
	}
	return nil
}

// Cluster reports cluster membership as served by GET /v1/cluster.
func (s *Service) Cluster() ClusterResponse {
	c := s.cluster.Load()
	if c == nil {
		return ClusterResponse{}
	}
	return ClusterResponse{
		Enabled: true,
		Self:    c.self,
		VNodes:  c.ring.VNodes(),
		Members: c.members(s.met),
	}
}

func (s *Service) handleCluster(w http.ResponseWriter, r *http.Request) {
	s.met.requests.add("cluster")
	writeJSON(w, http.StatusOK, s.Cluster())
}

// serveLocal reports whether a request for fp that another member owns
// is served here anyway, in one critical section: the daemon is draining
// (drain semantics stay local), or its cache already holds the result. A
// cache check counts no hit and touches recency like any get; results are
// deterministic in the fingerprint, so a local copy is byte-identical to
// the owner's.
func (s *Service) serveLocal(fp string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return true
	}
	_, ok := s.cache.get(fp)
	return ok
}

// forward proxies a sync planning request to the fingerprint's owner.
// It returns handled=true when the response has been fully written (the
// hop happened, successfully or not at the HTTP level — the owner's
// status, error envelope, Retry-After and X-Trace all pass through
// verbatim), along with the status that was written. It returns false
// when the request should be served locally: the daemon is unsharded,
// already a hop (loop guard), the owner of fp, the owner is down,
// draining (drain semantics stay local), or the local cache already
// holds the result.
func (s *Service) forward(ctx context.Context, w http.ResponseWriter, r *http.Request, body []byte, fp string) (bool, int) {
	c := s.cluster.Load()
	if c == nil || r.Header.Get(ForwardedHeader) != "" {
		return false, 0
	}
	owner, remote := c.owner(fp)
	if !remote {
		return false, 0
	}
	if s.serveLocal(fp) {
		return false, 0
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, owner+r.URL.Path, bytes.NewReader(body))
	if err != nil {
		return false, 0
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(ForwardedHeader, c.self)
	// The explicit deadline header travels with the hop so the owner's
	// admission controller sheds against the client's real deadline; the
	// proxied request's context enforces it end-to-end regardless.
	if h := r.Header.Get("X-Deadline-Ms"); h != "" {
		req.Header.Set("X-Deadline-Ms", h)
	}
	resp, err := c.client.Do(req)
	if err != nil {
		// Owner unreachable: mark it down (probes re-admit it) and degrade
		// to local compute — the ring degrades, requests never fail because
		// a peer died.
		c.markDown(owner, err)
		s.met.forwardFail.add(owner)
		return false, 0
	}
	defer resp.Body.Close()
	s.met.forwarded.add(owner)
	// The owner's response passes through byte-for-byte: status, error
	// envelope, its Retry-After (computed from the owner's queue, which
	// is the one that matters) and its X-Trace stage breakdown.
	for _, h := range []string{"Content-Type", "Retry-After", "X-Trace"} {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.Header().Set(OwnerHeader, owner)
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body)
	return true, resp.StatusCode
}

// forwardedServed counts a request that arrived via a peer's forward
// (it carries the loop-guard header) and is being served here.
func (s *Service) noteForwardedArrival(r *http.Request) {
	if r.Header.Get(ForwardedHeader) != "" {
		s.met.fwdServed.Add(1)
	}
}
