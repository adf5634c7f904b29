// Package attack implements the de-anonymization techniques the paper
// discusses (§3.2, §4.3): given only the *shared* (anonymized)
// configurations — exactly the adversary model of §2.2 — each attack
// tries to tell fake links and fake hosts apart from real ones.
//
//   - UnconfiguredInterfaces: interfaces carrying no routing protocol are
//     the fake links of the naive strawman (§3.2 step 1).
//   - LargeCostLinks: links whose cost exceeds every shortest-path
//     alternative carry no traffic — the "set a large cost" strawman
//     (§3.2 step 2ii) — and are identified by SPT computation.
//   - SharedDenyPattern: interfaces/neighbors that always bind a common
//     minimal deny set across all routers expose strawman 1's unified
//     filtering (§4.3, Listing 3).
//   - DegreeReidentification: matching an auxiliary (true) degree
//     sequence against the shared topology — the attack k-degree
//     anonymity is designed to blunt.
//
// The experiments use these to show that ConfMask's output resists the
// structural attacks that break the strawmen, and that its k-anonymity
// caps re-identification confidence at 1/k.
package attack

import (
	"sort"

	"confmask/internal/config"
	"confmask/internal/sim"
	"confmask/internal/topology"
)

// LinkSuspicion marks a router-to-router link an attack flags as fake.
type LinkSuspicion struct {
	Link   topology.Edge
	Reason string
}

// UnconfiguredInterfaces flags links whose endpoint interfaces do not
// participate in any routing protocol — the giveaway of adding bare fake
// interfaces without protocol configuration.
func UnconfiguredInterfaces(cfg *config.Network) ([]LinkSuspicion, error) {
	view, err := sim.Build(cfg)
	if err != nil {
		return nil, err
	}
	var out []LinkSuspicion
	for _, l := range view.Links {
		da := cfg.Device(l.A.Device)
		db := cfg.Device(l.B.Device)
		if da.Kind != config.RouterKind || db.Kind != config.RouterKind {
			continue
		}
		if !interfaceRouted(da, l.A.Iface) || !interfaceRouted(db, l.B.Iface) {
			out = append(out, LinkSuspicion{
				Link:   topology.CanonEdge(l.A.Device, l.B.Device),
				Reason: "no routing protocol on interface",
			})
		}
	}
	return dedupe(out), nil
}

// interfaceRouted reports whether the interface participates in an IGP or
// carries a BGP session address.
func interfaceRouted(d *config.Device, iface string) bool {
	i := d.Interface(iface)
	if i == nil || !i.Addr.IsValid() {
		return false
	}
	for _, k := range config.IGPs {
		if proc := d.Process(k); proc != nil && proc.Enables(i) {
			return true
		}
	}
	if d.BGP != nil {
		// An interface hosting an eBGP session subnet is routed.
		for _, nb := range d.BGP.Neighbors {
			if i.Addr.Masked().Contains(nb.Addr) {
				return true
			}
		}
	}
	return false
}

// LargeCostLinks flags OSPF links that cannot carry traffic because their
// cost strictly exceeds the best alternative path between their endpoints
// — the SPT attack against the "sufficiently large cost" strawman.
func LargeCostLinks(cfg *config.Network) ([]LinkSuspicion, error) {
	snap, err := sim.Simulate(cfg)
	if err != nil {
		return nil, err
	}
	var out []LinkSuspicion
	for _, l := range snap.Net.Links {
		da := cfg.Device(l.A.Device)
		db := cfg.Device(l.B.Device)
		if da.Kind != config.RouterKind || db.Kind != config.RouterKind {
			continue
		}
		ia := da.Interface(l.A.Iface)
		ib := db.Interface(l.B.Iface)
		if ia == nil || ib == nil {
			continue
		}
		distAB, okAB := snap.OSPFDist.Dist(l.A.Device, l.B.Device)
		distBA, okBA := snap.OSPFDist.Dist(l.B.Device, l.A.Device)
		if !okAB || !okBA {
			continue
		}
		// The SPF distance already includes this link as a candidate; if
		// the direct cost is strictly above the distance in both
		// directions, no shortest path ever uses the link.
		if ia.Cost() > distAB && ib.Cost() > distBA {
			out = append(out, LinkSuspicion{
				Link:   topology.CanonEdge(l.A.Device, l.B.Device),
				Reason: "cost exceeds best alternative path (dead link)",
			})
		}
	}
	return dedupe(out), nil
}

// SharedDenyPattern flags interfaces and BGP neighbors that bind a deny
// set shared verbatim across several routers — strawman 1's unified
// "reject every host" lists. minShared is the number of routers that must
// exhibit the identical deny multiset before it counts as a pattern
// (2 is the paper's implicit setting: any repetition is suspicious).
// Single-prefix deny sets are ignored: they repeat by chance under
// ConfMask's randomized per-destination filters, whereas the strawman's
// giveaway is a *multi-prefix* list (one entry per real host) copied
// verbatim everywhere (§4.3, Listing 3).
func SharedDenyPattern(cfg *config.Network, minShared int) []LinkSuspicion {
	if minShared < 2 {
		minShared = 2
	}
	// Canonical deny-set signature per (device, attachment).
	type site struct {
		dev   string
		iface string
	}
	sigs := make(map[string][]site)
	for _, name := range cfg.Names() {
		d := cfg.Device(name)
		if d.Kind != config.RouterKind {
			continue
		}
		record := func(iface, list string) {
			pl := d.PrefixList(list)
			if pl == nil {
				return
			}
			var denies []string
			for _, r := range pl.Rules {
				if r.Deny {
					denies = append(denies, r.Prefix.String())
				}
			}
			if len(denies) < 2 {
				return
			}
			sort.Strings(denies)
			key := ""
			for _, s := range denies {
				key += s + ";"
			}
			sigs[key] = append(sigs[key], site{dev: name, iface: iface})
		}
		if d.OSPF != nil {
			for iface, list := range d.OSPF.InFilters {
				record(iface, list)
			}
		}
		if d.RIP != nil {
			for iface, list := range d.RIP.InFilters {
				record(iface, list)
			}
		}
		if d.BGP != nil {
			for _, nb := range d.BGP.Neighbors {
				if nb.DistributeListIn != "" {
					record("bgp:"+nb.Addr.String(), nb.DistributeListIn)
				}
			}
		}
	}
	var out []LinkSuspicion
	for _, sites := range sigs {
		devs := make(map[string]bool)
		for _, s := range sites {
			devs[s.dev] = true
		}
		if len(devs) < minShared {
			continue
		}
		for _, s := range sites {
			out = append(out, LinkSuspicion{
				Link:   topology.Edge{A: s.dev, B: s.iface},
				Reason: "identical deny set repeated across routers",
			})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Link.A != out[j].Link.A {
			return out[i].Link.A < out[j].Link.A
		}
		return out[i].Link.B < out[j].Link.B
	})
	return out
}

// Score summarizes an attack's quality against ground truth.
type Score struct {
	// TruePositives are flagged links that are actually fake;
	// FalsePositives are flagged real links; FalseNegatives are fake
	// links the attack missed.
	TruePositives, FalsePositives, FalseNegatives int
}

// Precision is TP / (TP + FP); 1 when nothing was flagged.
func (s Score) Precision() float64 {
	den := s.TruePositives + s.FalsePositives
	if den == 0 {
		return 1
	}
	return float64(s.TruePositives) / float64(den)
}

// Recall is TP / (TP + FN); 1 when nothing was fake.
func (s Score) Recall() float64 {
	den := s.TruePositives + s.FalseNegatives
	if den == 0 {
		return 1
	}
	return float64(s.TruePositives) / float64(den)
}

// ScoreLinks grades flagged links against the true fake-link set.
func ScoreLinks(flagged []LinkSuspicion, fake []topology.Edge) Score {
	fakeSet := make(map[topology.Edge]bool, len(fake))
	for _, e := range fake {
		fakeSet[topology.CanonEdge(e.A, e.B)] = true
	}
	var s Score
	seen := make(map[topology.Edge]bool)
	for _, f := range flagged {
		e := topology.CanonEdge(f.Link.A, f.Link.B)
		if seen[e] {
			continue
		}
		seen[e] = true
		if fakeSet[e] {
			s.TruePositives++
		} else {
			s.FalsePositives++
		}
	}
	for e := range fakeSet {
		if !seen[e] {
			s.FalseNegatives++
		}
	}
	return s
}

// DegreeReidentification models the auxiliary-knowledge attack k-degree
// anonymity defends against: the adversary knows the true router degree of
// a target (e.g. from partial leaks) and tries to locate it in the shared
// topology. The returned confidence for each router is 1/|candidates with
// the same degree| — with k-anonymity in force it is at most 1/k.
func DegreeReidentification(shared *topology.Graph, trueDegree int) (candidates []string, confidence float64) {
	for _, r := range shared.NodesOf(topology.Router) {
		if shared.RouterDegree(r) == trueDegree {
			candidates = append(candidates, r)
		}
	}
	if len(candidates) == 0 {
		return nil, 0
	}
	return candidates, 1 / float64(len(candidates))
}

// ReidentSummary aggregates the degree re-identification attack over a
// whole network under two adversary models.
type ReidentSummary struct {
	// Routers is the number of true routers attacked.
	Routers int `json:"routers"`
	// True-degree model: the adversary knows each router's degree in the
	// hidden original network. Unmatched counts routers whose true degree
	// occurs nowhere in the shared graph — the attack yields nothing for
	// them (confidence 0); fake links typically make this the common case.
	Unmatched      int     `json:"unmatched"`
	MeanConfidence float64 `json:"mean_confidence"`
	MaxConfidence  float64 `json:"max_confidence"`
	// Strongest-knowledge model: the adversary somehow knows the target's
	// degree in the shared graph itself. This upper-bounds every
	// degree-based attack, and k-degree anonymity still caps it at 1/k_R.
	SharedMean float64 `json:"shared_mean_confidence"`
	SharedMax  float64 `json:"shared_max_confidence"`
}

// ReidentifyAll runs DegreeReidentification against shared for every
// router of trueTopo, under both the true-degree and the
// strongest-knowledge adversary models.
func ReidentifyAll(trueTopo, shared *topology.Graph) ReidentSummary {
	var s ReidentSummary
	var sum, sharedSum float64
	for _, r := range trueTopo.NodesOf(topology.Router) {
		s.Routers++
		cands, conf := DegreeReidentification(shared, trueTopo.RouterDegree(r))
		if len(cands) == 0 {
			s.Unmatched++
		} else {
			sum += conf
			if conf > s.MaxConfidence {
				s.MaxConfidence = conf
			}
		}
		if _, sconf := DegreeReidentification(shared, shared.RouterDegree(r)); sconf > 0 {
			sharedSum += sconf
			if sconf > s.SharedMax {
				s.SharedMax = sconf
			}
		}
	}
	if s.Routers > 0 {
		s.MeanConfidence = sum / float64(s.Routers)
		s.SharedMean = sharedSum / float64(s.Routers)
	}
	return s
}

func dedupe(in []LinkSuspicion) []LinkSuspicion {
	seen := make(map[topology.Edge]bool)
	out := in[:0]
	for _, s := range in {
		if seen[s.Link] {
			continue
		}
		seen[s.Link] = true
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Link.A != out[j].Link.A {
			return out[i].Link.A < out[j].Link.A
		}
		return out[i].Link.B < out[j].Link.B
	})
	return out
}
