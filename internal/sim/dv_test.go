package sim

import (
	"fmt"
	"math/rand"
	"net/netip"
	"testing"

	"confmask/internal/config"
	"confmask/internal/netgen"
)

// dvArc is one distance-vector advertisement direction: to receives what
// from advertises, on its interface toIface.
type dvArc struct {
	from, to string
	toIface  *config.Interface
}

// dvOracleRoute is one (speaker, prefix) result of dvOracle.
type dvOracleRoute struct {
	metric   int
	nextHops []NextHop
}

// dvOracle computes RIP or EIGRP routes without runDV: for each prefix, a
// multi-source Dijkstra from the routers that originate it. Each
// originator starts at its enabling interface's origin metric (RIP: 1;
// EIGRP: the interface delay). An arc is skipped when the receiving
// interface's inbound list denies the prefix (evaluated with
// config.PrefixList.Denies) and a router with the prefix connected never
// learns it. RIP keeps only metrics below 16. The ECMP next hops of a
// router are every permitted arc into it that attains its distance.
// denied and cut count the relaxations a list rejected and the ones RIP's
// infinity dropped.
func dvOracle(n *Net, proto netgen.Proto) (routes map[string]map[netip.Prefix]dvOracleRoute, denied, cut int) {
	rip := proto == netgen.RIP
	type process struct {
		networks []netip.Prefix
		filters  map[string]string
		asn      int
	}
	procOf := func(d *config.Device) *process {
		switch {
		case d.Kind != config.RouterKind:
		case rip && d.RIP != nil:
			return &process{networks: d.RIP.Networks, filters: d.RIP.InFilters}
		case !rip && d.EIGRP != nil:
			return &process{networks: d.EIGRP.Networks, filters: d.EIGRP.InFilters, asn: d.EIGRP.ASN}
		}
		return nil
	}
	enabled := func(pr *process, i *config.Interface) bool {
		for _, nw := range pr.networks {
			if i.Addr.IsValid() && nw.Contains(i.Addr.Addr()) {
				return true
			}
		}
		return false
	}
	metric := func(i *config.Interface) int {
		if rip {
			return 1
		}
		return i.DelayValue()
	}
	denies := func(dev string, i *config.Interface, p netip.Prefix) bool {
		d := n.Cfg.Device(dev)
		pl := d.PrefixList(procOf(d).filters[i.Name])
		return pl != nil && pl.Denies(p)
	}

	var arcs []dvArc
	for _, l := range n.Links {
		da, db := n.Cfg.Device(l.A.Device), n.Cfg.Device(l.B.Device)
		pa, pb := procOf(da), procOf(db)
		if pa == nil || pb == nil || pa.asn != pb.asn {
			continue
		}
		ia, ib := da.Interface(l.A.Iface), db.Interface(l.B.Iface)
		if !enabled(pa, ia) || !enabled(pb, ib) {
			continue
		}
		arcs = append(arcs, dvArc{from: l.A.Device, to: l.B.Device, toIface: ib}, dvArc{from: l.B.Device, to: l.A.Device, toIface: ia})
	}

	origins := make(map[netip.Prefix]map[string]int)
	connected := make(map[string]map[netip.Prefix]bool)
	for _, name := range n.Cfg.Names() {
		d := n.Cfg.Device(name)
		connected[name] = make(map[netip.Prefix]bool)
		pr := procOf(d)
		for _, i := range d.Interfaces {
			if !i.Addr.IsValid() {
				continue
			}
			p := i.Addr.Masked()
			connected[name][p] = true
			if pr == nil || !enabled(pr, i) {
				continue
			}
			if origins[p] == nil {
				origins[p] = make(map[string]int)
			}
			if m, ok := origins[p][name]; !ok || metric(i) < m {
				origins[p][name] = metric(i)
			}
		}
	}

	routes = make(map[string]map[netip.Prefix]dvOracleRoute)
	for p, orig := range origins {
		dist := make(map[string]int, len(orig))
		for r, m := range orig {
			dist[r] = m
		}
		done := make(map[string]bool)
		for {
			u, best := "", 0
			for r, m := range dist {
				if !done[r] && (u == "" || m < best) {
					u, best = r, m
				}
			}
			if u == "" {
				break
			}
			done[u] = true
			for _, a := range arcs {
				if a.from != u || connected[a.to][p] {
					continue
				}
				if denies(a.to, a.toIface, p) {
					denied++
					continue
				}
				m := best + metric(a.toIface)
				if rip && m >= 16 {
					cut++
					continue
				}
				if cur, ok := dist[a.to]; !ok || m < cur {
					dist[a.to] = m
				}
			}
		}
		for r, m := range dist {
			if connected[r][p] {
				continue
			}
			var nhs []NextHop
			for _, a := range arcs {
				if a.to != r {
					continue
				}
				if dn, ok := dist[a.from]; ok && dn+metric(a.toIface) == m && !denies(r, a.toIface, p) {
					nhs = append(nhs, NextHop{Device: a.from, Iface: a.toIface.Name})
				}
			}
			if routes[r] == nil {
				routes[r] = make(map[netip.Prefix]dvOracleRoute)
			}
			routes[r][p] = dvOracleRoute{metric: m, nextHops: sortNextHops(nhs)}
		}
	}
	return routes, denied, cut
}

// longChainNet is a random network whose diameter can reach RIP's
// infinity, which randomSimNet's bushy graphs never do: a chain of 14–23
// routers with up to two chords and hosts at both ends.
func longChainNet(t *testing.T, proto netgen.Proto, rng *rand.Rand) *config.Network {
	t.Helper()
	n := 14 + rng.Intn(10)
	b := netgen.NewBuilder(proto)
	name := func(i int) string { return fmt.Sprintf("c%02d", i) }
	for i := 0; i < n; i++ {
		b.Router(name(i))
		if i > 0 {
			b.Link(name(i-1), name(i))
		}
	}
	for k := rng.Intn(3); k > 0; k-- {
		if i, j := rng.Intn(n), rng.Intn(n); j > i+1 {
			b.Link(name(i), name(j))
		}
	}
	b.Host("h0", name(0)).Host("h1", name(n-1))
	cfg, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

// randomizeDV gives a random network random interface delays, random
// inbound distribute-lists (exact denies, a leading permit, a ranged
// deny, an unknown list name) and, for EIGRP, a few routers in a second
// AS.
func randomizeDV(cfg *config.Network, proto netgen.Proto, rng *rand.Rand) {
	var pfxs []netip.Prefix
	for _, name := range cfg.Names() {
		for _, i := range cfg.Device(name).Interfaces {
			if i.Addr.IsValid() {
				pfxs = append(pfxs, i.Addr.Masked())
			}
		}
	}
	pick := func() netip.Prefix { return pfxs[rng.Intn(len(pfxs))] }
	for _, r := range cfg.Routers() {
		d := cfg.Device(r)
		if proto == netgen.EIGRP && rng.Intn(8) == 0 {
			d.EIGRP.ASN = 200
		}
		var filters map[string]string
		if proto == netgen.RIP {
			filters = d.RIP.InFilters
		} else {
			filters = d.EIGRP.InFilters
		}
		for _, i := range d.Interfaces {
			if rng.Intn(2) == 0 {
				i.Delay = 1 + rng.Intn(40)
			}
			if !i.Addr.IsValid() || rng.Intn(3) != 0 {
				continue
			}
			name := "O-" + i.Name
			filters[i.Name] = name
			if rng.Intn(10) == 0 {
				continue // unknown list: permits everything
			}
			pl := d.EnsurePrefixList(name)
			if rng.Intn(4) == 0 {
				pl.Rules = append(pl.Rules, config.PrefixRule{Seq: 1, Prefix: pick()})
			}
			for k := 1 + rng.Intn(3); k > 0; k-- {
				pl.Deny(pick())
			}
			if rng.Intn(5) == 0 {
				if q := pick(); q.Bits() >= 8 {
					super := netip.PrefixFrom(q.Addr(), q.Bits()-8).Masked()
					pl.Rules = append(pl.Rules, config.PrefixRule{Seq: 1000, Deny: true, Prefix: super, Le: 32})
				}
			}
		}
	}
}

// TestDistanceVectorMatchesOracle checks runDV's RIP and EIGRP tables
// against dvOracle on random networks (randomSimNet, and every fourth
// trial a longChainNet) with random delays and filters, at parallelism 1
// and 4: the same speakers, prefixes, metrics and sorted ECMP next-hop
// sets.
func TestDistanceVectorMatchesOracle(t *testing.T) {
	for _, tc := range []struct {
		proto netgen.Proto
		pr    dvProto
	}{{netgen.RIP, ripProto}, {netgen.EIGRP, eigrpProto}} {
		rng := rand.New(rand.NewSource(9127))
		totalDenied, totalCut, totalRoutes := 0, 0, 0
		for trial := 0; trial < 48; trial++ {
			var cfg *config.Network
			if trial%4 == 3 {
				cfg = longChainNet(t, tc.proto, rng)
			} else {
				cfg = randomSimNet(t, tc.proto, rng)
			}
			randomizeDV(cfg, tc.proto, rng)
			n, err := Build(cfg)
			if err != nil {
				t.Fatal(err)
			}
			want, denied, cut := dvOracle(n, tc.proto)
			totalDenied += denied
			totalCut += cut
			for _, workers := range []int{1, 4} {
				got := n.runDV(workers, tc.pr)
				ctx := fmt.Sprintf("%v trial %d workers %d", tc.pr.igp, trial, workers)
				for r, table := range got {
					for p, rt := range table {
						w, ok := want[r][p]
						if !ok {
							t.Fatalf("%s: %s has route %v %d %v, oracle has none", ctx, r, p, rt.Metric, rt.NextHops)
						}
						if rt.Source != tc.pr.src || rt.Metric != w.metric || fmt.Sprint(rt.NextHops) != fmt.Sprint(w.nextHops) {
							t.Fatalf("%s: %s %v = %v %d %v, oracle %d %v", ctx, r, p, rt.Source, rt.Metric, rt.NextHops, w.metric, w.nextHops)
						}
					}
				}
				for r, table := range want {
					for p, w := range table {
						if _, ok := got[r][p]; !ok {
							t.Fatalf("%s: %s lacks %v (oracle %d %v)", ctx, r, p, w.metric, w.nextHops)
						}
					}
					totalRoutes += len(table)
				}
			}
		}
		// Guard against a vacuous run: the filters, and RIP's infinity,
		// must have bitten.
		if totalDenied == 0 || totalRoutes == 0 || (tc.pr.infinity > 0) != (totalCut > 0) {
			t.Fatalf("%v: %d routes, %d denied and %d cut relaxations", tc.pr.igp, totalRoutes, totalDenied, totalCut)
		}
	}
}
