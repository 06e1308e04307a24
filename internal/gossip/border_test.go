package gossip

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"rasc.dev/rasc/internal/monitor"
	"rasc.dev/rasc/internal/overlay"
	"rasc.dev/rasc/internal/simnet"
)

// borderCluster is a two-cluster fixture: nodes 0..half-1 in cluster "a",
// the rest in "b", every node seeded with its own cluster's roster only,
// and node 0 / node half configured as the border pair.
type borderCluster struct {
	c  *simnet.Cluster
	gs []*Gossip
}

func newBorderCluster(t *testing.T, n int, seed int64, cfg Config) *borderCluster {
	t.Helper()
	half := n / 2
	clusterOf := func(i int) string {
		if i < half {
			return "a"
		}
		return "b"
	}
	c := simnet.New(simnet.Options{
		N:    n,
		Seed: seed,
		ConfigureNode: func(i int, node *overlay.Node) {
			node.SetCluster(clusterOf(i))
		},
	})
	tc := &borderCluster{c: c}
	for i, node := range c.Nodes {
		ncfg := cfg
		ncfg.Cluster = clusterOf(i)
		ncfg.BoundaryBps = 5e7
		// Node 0 and node half are the border pair; everyone else runs
		// the intra-cluster protocol only.
		if i == 0 {
			ncfg.BorderPeers = []overlay.NodeInfo{c.Nodes[half].Info()}
		} else if i == half {
			ncfg.BorderPeers = []overlay.NodeInfo{c.Nodes[0].Info()}
		}
		rng := rand.New(rand.NewSource(seed*1_000_003 + int64(i)))
		g := New(node, c.Clock, rng, ncfg)
		idx := i
		g.SetDigestFunc(func() Digest {
			return Digest{
				Report:   monitor.Report{InBpsCap: 1000, OutBpsCap: 2000},
				Services: []string{fmt.Sprintf("svc-%s", clusterOf(idx))},
			}
		})
		tc.gs = append(tc.gs, g)
	}
	// Seed every node with the FULL roster: the cluster scope must skip
	// the foreign half on its own.
	var infos []overlay.NodeInfo
	for _, node := range c.Nodes {
		infos = append(infos, node.Info())
	}
	for _, g := range tc.gs {
		g.Seed(infos)
		g.Start()
	}
	return tc
}

func (tc *borderCluster) step(d time.Duration) {
	tc.c.Sim.RunUntil(tc.c.Sim.Now() + d)
}

// TestClusterScopedMembershipSkipsForeignNodes pins the scoping contract:
// a cluster-scoped instance seeded with the full deployment roster tracks
// only its own cluster — foreign members never enter the view, even
// after rounds of probing and anti-entropy.
func TestClusterScopedMembershipSkipsForeignNodes(t *testing.T) {
	const n = 8
	tc := newBorderCluster(t, n, 11, testConfig())
	tc.step(20 * time.Second)
	for i, g := range tc.gs {
		want := "a"
		if i >= n/2 {
			want = "b"
		}
		members := g.Members()
		if len(members) != n/2 {
			t.Fatalf("node %d tracks %d members, want its own cluster of %d", i, len(members), n/2)
		}
		for _, m := range members {
			if m.Info.Cluster != want {
				t.Fatalf("node %d (cluster %s) tracks foreign member %s of cluster %s",
					i, want, m.Info.ID, m.Info.Cluster)
			}
		}
	}
}

// TestBorderSummaryExchange drives the push-pull border protocol: the
// border pair converges on each other's cluster summary — members,
// exported catalog, advertised boundary capacity — while non-border nodes
// hold no summaries at all.
func TestBorderSummaryExchange(t *testing.T) {
	const n = 8
	tc := newBorderCluster(t, n, 11, testConfig())
	tc.step(20 * time.Second)

	for i, wantRemote := range map[int]string{0: "b", n / 2: "a"} {
		s, ok := tc.gs[i].SummaryFor(wantRemote)
		if !ok {
			t.Fatalf("border node %d holds no summary for cluster %s", i, wantRemote)
		}
		if s.Members != n/2 {
			t.Errorf("summary of %s reports %d members, want %d", wantRemote, s.Members, n/2)
		}
		if !s.Offers("svc-"+wantRemote) || s.Offers("svc-none") {
			t.Errorf("summary of %s exports %v, want [svc-%s]", wantRemote, s.Services, wantRemote)
		}
		if s.BoundaryBps != 5e7 {
			t.Errorf("summary of %s advertises %.0f boundary bps, want 5e7", wantRemote, s.BoundaryBps)
		}
		if s.Border.Cluster != wantRemote {
			t.Errorf("summary of %s produced by border of cluster %q", wantRemote, s.Border.Cluster)
		}
	}
	for _, i := range []int{1, 2, n/2 + 1} {
		if got := tc.gs[i].Summaries(); len(got) != 0 {
			t.Errorf("non-border node %d holds summaries %+v", i, got)
		}
	}
}

// TestBorderSummaryTTLExpiry kills one cluster's border and checks the
// other side expires the stale summary and fires OnSummaryLost exactly
// once.
func TestBorderSummaryTTLExpiry(t *testing.T) {
	const n = 8
	tc := newBorderCluster(t, n, 11, testConfig())
	var lost []string
	tc.gs[0].OnSummaryLost(func(cluster string) { lost = append(lost, cluster) })
	tc.step(20 * time.Second)
	if _, ok := tc.gs[0].SummaryFor("b"); !ok {
		t.Fatal("border never converged")
	}
	// Fail-stop the whole remote cluster so no refresh can arrive.
	for i := n / 2; i < n; i++ {
		tc.gs[i].Stop()
		tc.c.Endpoints[i].Close()
	}
	cfg := tc.gs[0].Config()
	tc.step(cfg.SummaryTTL + 2*cfg.SummaryInterval)
	if _, ok := tc.gs[0].SummaryFor("b"); ok {
		t.Fatal("summary of the dead cluster b never expired")
	}
	if len(lost) != 1 || lost[0] != "b" {
		t.Fatalf("OnSummaryLost fired %v, want exactly [b]", lost)
	}
}

// TestSummaryExchangeRejectedWhenUnscoped pins the boundary of the
// boundary: a flat (unscoped) node refuses the summary RPC, so a
// misconfigured border cannot leak summaries into flat deployments.
func TestSummaryExchangeRejectedWhenUnscoped(t *testing.T) {
	c := simnet.New(simnet.Options{N: 2, Seed: 3})
	cfgA := testConfig()
	cfgA.Cluster = "a"
	cfgA.BorderPeers = []overlay.NodeInfo{c.Nodes[1].Info()}
	rng := rand.New(rand.NewSource(1))
	border := New(c.Nodes[0], c.Clock, rng, cfgA)
	flat := New(c.Nodes[1], c.Clock, rand.New(rand.NewSource(2)), testConfig())
	border.Seed([]overlay.NodeInfo{c.Nodes[0].Info()})
	flat.Seed([]overlay.NodeInfo{c.Nodes[0].Info(), c.Nodes[1].Info()})
	border.Start()
	flat.Start()
	c.Sim.RunUntil(c.Sim.Now() + 20*time.Second)
	if got := border.Summaries(); len(got) != 0 {
		t.Fatalf("border holds summaries %+v from an unscoped peer", got)
	}
	if got := flat.Summaries(); len(got) != 0 {
		t.Fatalf("flat node holds summaries %+v", got)
	}
}

// TestLocalSummaryIsOrderIndependent pins bit-identical aggregate headroom
// across repeated summaries of the same members: float addition is not
// associative, so summing in map order gave run-to-run differences.
func TestLocalSummaryIsOrderIndependent(t *testing.T) {
	_, g, _ := fixture(t)
	g.cfg.Cluster = "a"
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 40; i++ {
		id := overlay.RandomID(rng)
		g.members[id] = &member{Member: Member{
			Info:  overlay.NodeInfo{ID: id, Addr: "m"},
			State: StateAlive,
			Digest: Digest{Version: 1, Report: monitor.Report{
				InBpsCap:  rng.Float64() * 1e6,
				OutBpsCap: rng.Float64() * 1e-3,
			}},
		}}
	}
	first := g.LocalSummary()
	for i := 0; i < 50; i++ {
		s := g.LocalSummary()
		if math.Float64bits(s.AggAvailInBps) != math.Float64bits(first.AggAvailInBps) ||
			math.Float64bits(s.AggAvailOutBps) != math.Float64bits(first.AggAvailOutBps) {
			t.Fatalf("summary %d: in %v out %v, first in %v out %v",
				i, s.AggAvailInBps, s.AggAvailOutBps, first.AggAvailInBps, first.AggAvailOutBps)
		}
	}
}
