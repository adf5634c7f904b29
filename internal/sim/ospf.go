package sim

import (
	"net/netip"
	"sync"

	"confmask/internal/config"
)

// ospfState is the computed link-state view shared by FIB construction and
// BGP next-hop resolution: the filter-independent core plus one run's
// per-prefix route columns.
type ospfState struct {
	*ospfCore
	// cols[pi][si] is the OSPF route of speakers[si] to prefixes[pi], nil
	// when it has none. Columns a filter change cannot affect are shared
	// with the Net's previous run, so published Routes are immutable.
	cols [][]*Route
}

// route returns router r's OSPF route to p, or nil.
func (st *ospfState) route(r string, p netip.Prefix) *Route {
	si, ok := st.speakerIdx[r]
	if !ok {
		return nil
	}
	pi, ok := st.prefixIdx[p]
	if !ok {
		return nil
	}
	return st.cols[pi][si]
}

// ospfRowPool recycles the per-prefix distance rows runOSPF streams: one
// live row per in-flight prefix shard, instead of a materialized
// prefixes × routers matrix.
var ospfRowPool = sync.Pool{New: func() any { return new([]int32) }}

func getOSPFRow(n int) []int32 {
	p := ospfRowPool.Get().(*[]int32)
	r := *p
	if cap(r) < n {
		r = make([]int32, n)
	}
	r = r[:n]
	for i := range r {
		r[i] = -1
	}
	return r
}

func putOSPFRow(r []int32) { ospfRowPool.Put(&r) }

// runOSPF computes OSPF routes for every OSPF-speaking router. The
// link-state view (interned cost graph, SPF distance rows) comes from the
// Net's cached core; only the filter-dependent route columns are
// recomputed, and only for the prefixes whose deny decisions changed
// since the Net's previous run (see ospfColumns).
//
// The computation is destination-sharded: for each advertised prefix, a
// pooled dense []int32 row of per-router distances to the prefix is
// streamed from the DistMatrix (min over the prefix's advertisers of the
// distance-to-advertiser row plus the advertising cost — exactly the old
// distP result, computed per shard and released when the shard finishes),
// and every speaker's candidate selection reads that row by interned
// neighbor id into the prefix's column. Each shard writes its own
// index-addressed column, so the output is identical at any worker count.
//
// Filters (distribute-list in on an interface) remove the corresponding
// next-hop candidates at RIB-installation time on the filtering router
// only; the link-state database itself is unaffected, matching IOS
// semantics and the "edge is rejected" clause of the paper's SFE
// conditions for link-state protocols.
func (n *Net) runOSPF(workers int) *ospfState {
	core := n.coreFor(workers)
	oc := core.ospf
	st := &ospfState{ospfCore: oc}
	if len(oc.speakers) == 0 {
		return st
	}
	prev, dirty := n.ospfColumns()

	// Filter-independent per-speaker state, resolved once per run instead
	// of once per (prefix, link): the device, its connected prefixes, and
	// its candidate links with interned neighbor ids and local costs, in
	// core.links[config.IGPOSPF] order (the order the candidate scan has
	// always branched in).
	type linkCand struct {
		nb     int32 // neighbor speaker id
		nbName string
		iface  string // local interface name
		cost   int32  // local interface cost
	}
	S := len(oc.speakers)
	devs := make([]*config.Device, S)
	connected := make([]map[netip.Prefix]bool, S)
	cands := make([][]linkCand, S)
	forEachIndex(workers, S, func(si int) {
		r := oc.speakers[si]
		d := n.Cfg.Device(r)
		devs[si] = d
		conn := make(map[netip.Prefix]bool)
		for _, i := range d.Interfaces {
			if i.Addr.IsValid() {
				conn[i.Addr.Masked()] = true
			}
		}
		connected[si] = conn
		cs := make([]linkCand, 0, len(core.links[config.IGPOSPF][r]))
		for _, l := range core.links[config.IGPOSPF][r] {
			local, _ := l.Local(r)
			other, _ := l.Other(r)
			nb, _ := oc.t.id(other.Device)
			li := d.Interface(local.Iface)
			cs = append(cs, linkCand{nb: nb, nbName: other.Device, iface: local.Iface, cost: clampCost32(li.Cost())})
		}
		cands[si] = cs
	})

	// Destination-sharded candidate selection.
	P := len(oc.prefixes)
	cols := make([][]*Route, P)
	forEachIndex(workers, P, func(pi int) {
		p := oc.prefixes[pi]
		if prev != nil && !dirty.Affects(p) {
			cols[pi] = prev[pi]
			return
		}
		dp := getOSPFRow(oc.t.size())
		for _, a := range oc.advs[p] {
			arow := oc.dist.rowTo(a.router)
			for s, das := range arow {
				if das < 0 {
					continue
				}
				if t := satAdd32(das, a.cost); dp[s] < 0 || t < dp[s] {
					dp[s] = t
				}
			}
		}
		// Routes and next-hop lists are arena-allocated per prefix (one
		// backing array each instead of one allocation per route), which
		// is what keeps the GC out of the way at 10⁶ routes. Slices into
		// the arenas are taken only after both are fully grown.
		out := make([]*Route, S)
		arena := make([]Route, 0, S)
		var nhArena []NextHop
		slot := make([]int32, S)
		type span struct{ start, end int32 }
		spans := make([]span, 0, S)
		for si := range oc.speakers {
			slot[si] = -1
			if connected[si][p] {
				continue // connected route wins; OSPF never overrides it
			}
			d := devs[si]
			best := int32(-1)
			start := int32(len(nhArena))
			for _, lc := range cands[si] {
				dn := dp[lc.nb]
				if dn < 0 {
					continue
				}
				cand := satAdd32(lc.cost, dn)
				if n.filterDenies(d, config.IGPOSPF, lc.iface, p) {
					continue
				}
				switch {
				case best == -1 || cand < best:
					best = cand
					nhArena = append(nhArena[:start], NextHop{Device: lc.nbName, Iface: lc.iface})
				case cand == best:
					nhArena = append(nhArena, NextHop{Device: lc.nbName, Iface: lc.iface})
				}
			}
			if best >= 0 {
				seg := sortNextHops(nhArena[start:])
				nhArena = nhArena[:int(start)+len(seg)]
				slot[si] = int32(len(arena))
				arena = append(arena, Route{Prefix: p, Source: SrcOSPF, Metric: int(best)})
				spans = append(spans, span{start: start, end: int32(len(nhArena))})
			}
		}
		for si := range oc.speakers {
			if j := slot[si]; j >= 0 {
				sp := spans[j]
				arena[j].NextHops = nhArena[sp.start:sp.end:sp.end]
				out[si] = &arena[j]
			}
		}
		putOSPFRow(dp)
		cols[pi] = out
	})

	n.publishOSPFColumns(cols)
	st.cols = cols
	return st
}

// nextHopsToRouter returns the OSPF first hops from router r toward router
// dst (used for BGP recursive next-hop resolution). Filters do not apply:
// resolution targets router-level reachability, not host prefixes. The
// scan walks dst's dense distance row plus r's CSR arcs — no map lookups.
func (st *ospfState) nextHopsToRouter(n *Net, r, dst string) []NextHop {
	if r == dst || st.t == nil {
		return nil
	}
	ri, okr := st.t.id(r)
	di, okd := st.t.id(dst)
	if !okr || !okd {
		return nil
	}
	row := st.dist.rowTo(di)
	target := row[ri]
	if target < 0 {
		return nil
	}
	var nhs []NextHop
	for _, a := range st.fwd.outArcs(ri) {
		dn := row[a.to]
		if dn < 0 {
			continue
		}
		if satAdd32(a.cost, dn) == target {
			local, _ := a.link.Local(r)
			nhs = append(nhs, NextHop{Device: st.t.names[a.to], Iface: local.Iface})
		}
	}
	return sortNextHops(nhs)
}
