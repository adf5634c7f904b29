package sim

import (
	"net/netip"

	"confmask/internal/config"
)

// dvProto describes one distance-vector protocol to runDV. RIP and EIGRP
// run the same synchronous Bellman–Ford; they differ only in what is
// described here.
type dvProto struct {
	igp config.IGP
	src Source
	// metric is both the metric of a connected origination on an
	// interface and what a route adds when received on one.
	metric func(*config.Interface) int
	// infinity drops every metric at or above it; 0 means none.
	infinity int
}

var (
	// ripProto counts hops; 16 is unreachable.
	ripProto = dvProto{igp: config.IGPRIP, src: SrcRIP, metric: func(*config.Interface) int { return 1 }, infinity: 16}
	// eigrpProto uses the simplified additive form of EIGRP's composite
	// metric: the sum of interface delays along the path (the dominant
	// term on uniform-bandwidth links), accumulated receiver-side.
	eigrpProto = dvProto{igp: config.IGPEIGRP, src: SrcEIGRP, metric: (*config.Interface).DelayValue}
)

// dvEntry is one distance-vector entry during iteration. Connected
// originations are the entries without next hops.
type dvEntry struct {
	metric   int
	nextHops []NextHop
}

// runDV computes one distance-vector protocol's routes with synchronous
// Bellman–Ford iteration until convergence. Inbound distribute-lists on
// the receiving interface drop the matching advertisements — the
// distance-vector SFE condition 2 mechanism. Within a round every router's
// next vector depends only on the previous round's vectors, so the
// per-router work fans out across the worker pool.
func (n *Net) runDV(workers int, pr dvProto) map[string]map[netip.Prefix]*Route {
	out := make(map[string]map[netip.Prefix]*Route)

	core := n.coreFor(workers)
	speakers := core.speakers[pr.igp]
	if len(speakers) == 0 {
		return out
	}

	// Connected originations: every enabled interface prefix.
	vec := make(map[string]map[netip.Prefix]dvEntry, len(speakers))
	connectedOf := make(map[string]map[netip.Prefix]bool, len(speakers))
	for _, r := range speakers {
		d := n.Cfg.Device(r)
		proc := d.Process(pr.igp)
		v := make(map[netip.Prefix]dvEntry)
		conn := make(map[netip.Prefix]bool)
		for _, i := range d.Interfaces {
			if i.Addr.IsValid() {
				conn[i.Addr.Masked()] = true
			}
			if proc.Enables(i) {
				v[i.Addr.Masked()] = dvEntry{metric: pr.metric(i)}
			}
		}
		vec[r] = v
		connectedOf[r] = conn
	}

	// Synchronous rounds; the diameter bounds convergence, the cap guards
	// against pathological oscillation.
	maxRounds := len(speakers) + 4
	for round := 0; round < maxRounds; round++ {
		nvs := make([]map[netip.Prefix]dvEntry, len(speakers))
		diffs := make([]bool, len(speakers))
		forEachIndex(workers, len(speakers), func(idx int) {
			r := speakers[idx]
			d := n.Cfg.Device(r)
			nv := make(map[netip.Prefix]dvEntry)
			for p, e := range vec[r] {
				if len(e.nextHops) == 0 {
					nv[p] = e // connected originations are authoritative
				}
			}
			for _, l := range core.links[pr.igp][r] {
				local, _ := l.Local(r)
				other, _ := l.Other(r)
				hop := pr.metric(d.Interface(local.Iface))
				for p, e := range vec[other.Device] {
					if connectedOf[r][p] {
						continue
					}
					m := e.metric + hop
					if pr.infinity > 0 && m >= pr.infinity {
						continue
					}
					if n.filterDenies(d, pr.igp, local.Iface, p) {
						continue
					}
					nh := NextHop{Device: other.Device, Iface: local.Iface}
					cur, ok := nv[p]
					switch {
					case !ok || m < cur.metric:
						nv[p] = dvEntry{metric: m, nextHops: []NextHop{nh}}
					case m == cur.metric && len(cur.nextHops) > 0:
						cur.nextHops = append(cur.nextHops, nh)
						nv[p] = cur
					}
				}
			}
			nvs[idx] = nv
			diffs[idx] = !dvVecEqual(vec[r], nv)
		})
		next := make(map[string]map[netip.Prefix]dvEntry, len(speakers))
		changed := false
		for i, r := range speakers {
			next[r] = nvs[i]
			changed = changed || diffs[i]
		}
		vec = next
		if !changed {
			break
		}
	}

	for _, r := range speakers {
		table := make(map[netip.Prefix]*Route)
		for p, e := range vec[r] {
			if len(e.nextHops) == 0 {
				continue // connected origination, not a learned route
			}
			table[p] = &Route{Prefix: p, Source: pr.src, Metric: e.metric, NextHops: sortNextHops(e.nextHops)}
		}
		out[r] = table
	}
	return out
}

func dvVecEqual(a, b map[netip.Prefix]dvEntry) bool {
	if len(a) != len(b) {
		return false
	}
	for p, ea := range a {
		eb, ok := b[p]
		if !ok || ea.metric != eb.metric || len(ea.nextHops) != len(eb.nextHops) {
			return false
		}
		as := sortNextHops(append([]NextHop(nil), ea.nextHops...))
		bs := sortNextHops(append([]NextHop(nil), eb.nextHops...))
		for i := range as {
			if as[i] != bs[i] {
				return false
			}
		}
	}
	return true
}
