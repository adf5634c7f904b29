package sim

import (
	"net/netip"

	"confmask/internal/config"
)

// Simulate builds the network view from cfg and computes every device's
// FIB: connected and static routes plus OSPF, RIP, and BGP, merged by
// administrative distance. It is the ConfMask pipeline's replacement for a
// Batfish dataplane computation.
func Simulate(cfg *config.Network) (*Snapshot, error) {
	return SimulateOpts(cfg, Options{})
}

// SimulateOpts is Simulate with explicit engine options.
func SimulateOpts(cfg *config.Network, opts Options) (*Snapshot, error) {
	n, err := Build(cfg)
	if err != nil {
		return nil, err
	}
	snap := SimulateNetOpts(n, opts)
	// The Net is private to this call, so no round reuses its OSPF
	// columns; dropping them keeps long-lived snapshots (query engines,
	// verification) at the size of the routes they hold. Re-simulating
	// snap.Net stays correct and recomputes every column.
	n.publishOSPFColumns(nil)
	return snap, nil
}

// SimulateNet computes FIBs over an already-built network view with
// default options. Between calls the view's configurations must either
// stay untouched or be mutated in filters only, followed by
// InvalidateFilters; any other change requires a fresh Build.
func SimulateNet(n *Net) *Snapshot {
	return SimulateNetOpts(n, Options{})
}

// SimulateNetOpts is SimulateNet with explicit engine options. The
// result is identical at any parallelism level: every fan-out writes
// index-addressed slots that are merged in deterministic order.
func SimulateNetOpts(n *Net, opts Options) *Snapshot {
	workers := opts.workers()
	igp := n.runOSPF(workers)
	rip := n.runDV(workers, ripProto)
	eigrp := n.runDV(workers, eigrpProto)
	bgp := n.runBGP(igp, workers)

	snap := &Snapshot{Net: n, FIBs: make(map[string]FIB, len(n.Cfg.Devices)), OSPFDist: igp.dist, workers: workers}
	names := n.Cfg.Names()
	fibs := make([]FIB, len(names))
	forEachIndex(workers, len(names), func(i int) {
		fibs[i] = n.deviceFIB(names[i], igp, rip, eigrp, bgp)
	})
	for i, name := range names {
		snap.FIBs[name] = fibs[i]
	}
	return snap
}

// deviceFIB assembles one device's FIB from the converged protocol
// states. It only reads n and the protocol results, so devices fan out
// independently.
func (n *Net) deviceFIB(name string, igp *ospfState, rip, eigrp map[string]map[netip.Prefix]*Route, bgp *bgpState) FIB {
	d := n.Cfg.Device(name)
	si, ospfSpeaker := igp.speakerIdx[name]
	size := len(rip[name]) + len(eigrp[name]) + len(d.Interfaces)
	if ospfSpeaker {
		for _, col := range igp.cols {
			if col[si] != nil {
				size++
			}
		}
	}
	fib := make(FIB, size)

	install := func(r *Route) {
		if len(r.NextHops) == 0 {
			return
		}
		cur, ok := fib[r.Prefix]
		if !ok || r.Source < cur.Source {
			fib[r.Prefix] = r
		}
	}

	// Connected routes: one per addressed interface subnet, with the
	// far ends of matching links as next hops.
	for _, i := range d.Interfaces {
		if !i.Addr.IsValid() {
			continue
		}
		p := i.Addr.Masked()
		var nhs []NextHop
		for _, l := range n.linksOf[name] {
			if l.Prefix != p {
				continue
			}
			local, _ := l.Local(name)
			if local.Iface != i.Name {
				continue
			}
			other, _ := l.Other(name)
			nhs = append(nhs, NextHop{Device: other.Device, Iface: i.Name})
		}
		if len(nhs) > 0 {
			install(&Route{Prefix: p, Source: SrcConnected, NextHops: sortNextHops(nhs)})
		}
	}

	// Static routes: resolve the next-hop address to a directly
	// connected neighbor. Null0 routes install as discard entries —
	// the anchor operators use to originate aggregates and external
	// equivalence-class prefixes into BGP.
	for _, s := range d.Statics {
		if s.Discard {
			install(&Route{Prefix: s.Prefix, Source: SrcStatic, NextHops: []NextHop{{Device: DiscardDevice, Iface: "Null0"}}})
			continue
		}
		if nh, ok := n.resolveDirect(name, s.NextHop); ok {
			install(&Route{Prefix: s.Prefix, Source: SrcStatic, NextHops: []NextHop{nh}})
		}
	}

	if d.Kind == config.RouterKind {
		for _, r := range bgp.bgpFIBRoutes(n, igp, name) {
			install(r)
		}
		for _, r := range eigrp[name] {
			install(r)
		}
		if ospfSpeaker {
			for _, col := range igp.cols {
				if r := col[si]; r != nil {
					install(r)
				}
			}
		}
		for _, r := range rip[name] {
			install(r)
		}
	}
	return fib
}

// resolveDirect finds the link of dev whose far-end address equals addr.
func (n *Net) resolveDirect(dev string, addr netip.Addr) (NextHop, bool) {
	for _, l := range n.linksOf[dev] {
		other, _ := l.Other(dev)
		if other.Addr == addr {
			local, _ := l.Local(dev)
			return NextHop{Device: other.Device, Iface: local.Iface}, true
		}
	}
	return NextHop{}, false
}
