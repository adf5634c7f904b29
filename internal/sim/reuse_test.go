package sim

import (
	"fmt"
	"math/rand"
	"net/netip"
	"slices"
	"sync"
	"testing"

	"confmask/internal/config"
	"confmask/internal/netgen"
)

// TestOSPFColumnReuseMatchesFresh is the oracle for dirty-prefix OSPF
// re-simulation: a Net carried through rounds of deny additions and
// removals, re-simulated after 0, 1 or 2 InvalidateFilters calls, must
// produce exactly the FIBs of a fresh Build + SimulateNetOpts over the
// same configurations. Each mutation denies an OSPF route's first next
// hop (or removes such a deny), so it always changes some FIB; a round
// with two invalidations mutates two different destinations, which fails
// unless the pending dirty set is the union of both diffs. One round
// attaches a ranged (`le`) list, so its diff is all-dirty, and one round
// re-simulates the same Net from several goroutines.
func TestOSPFColumnReuseMatchesFresh(t *testing.T) {
	type netCase struct {
		name  string
		build func(t *testing.T) *config.Network
	}
	var cases []netCase
	for trial := 0; trial < 3; trial++ {
		seed := int64(5200 + trial)
		cases = append(cases, netCase{fmt.Sprintf("random%d", trial), func(t *testing.T) *config.Network {
			return randomSimNet(t, netgen.OSPF, rand.New(rand.NewSource(seed)))
		}})
	}
	cases = append(cases, netCase{"FatTree08", func(t *testing.T) *config.Network {
		cfg, err := netgen.FatTree08()
		if err != nil {
			t.Fatal(err)
		}
		return cfg
	}})
	for _, tc := range cases {
		for _, par := range []int{1, 4} {
			tc, par := tc, par
			t.Run(fmt.Sprintf("%s/p%d", tc.name, par), func(t *testing.T) {
				checkReuseRounds(t, tc.build(t), Options{Parallelism: par}, rand.New(rand.NewSource(int64(par))))
			})
		}
	}
}

func checkReuseRounds(t *testing.T, cfg *config.Network, opts Options, rng *rand.Rand) {
	view, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	snap := SimulateNetOpts(view, opts)
	hosts := cfg.Hosts()
	routers := cfg.Routers()
	type deny struct {
		dev, list string
		pfx       netip.Prefix
	}
	var added []deny
	nextHost := 0
	changed := 0

	// mutate removes an earlier deny or denies the first next hop of some
	// router's OSPF route toward the next host in turn, as seen by the
	// latest snapshot.
	mutate := func() {
		if len(added) > 0 && rng.Intn(3) == 0 {
			i := rng.Intn(len(added))
			if cfg.Device(added[i].dev).PrefixList(added[i].list).RemoveDeny(added[i].pfx) {
				changed++
			}
			added = append(added[:i], added[i+1:]...)
			return
		}
		h := hosts[nextHost%len(hosts)]
		nextHost++
		pfx := view.HostPrefix[h]
		for _, ri := range rng.Perm(len(routers)) {
			r := routers[ri]
			rt := snap.FIB(r)[pfx]
			if rt == nil || rt.Source != SrcOSPF {
				continue
			}
			d := cfg.Device(r)
			iface := rt.NextHops[0].Iface
			if attachIGPDeny(d, iface, pfx) {
				added = append(added, deny{dev: r, list: d.OSPF.InFilters[iface], pfx: pfx})
				changed++
				return
			}
		}
	}

	for round := 0; round < 9; round++ {
		calls := round % 3
		for c := 0; c < calls; c++ {
			mutate()
			view.InvalidateFilters()
		}
		if round == 7 {
			// A ranged deny covering the first host's LAN, attached
			// where no filter sat before.
			r := view.GatewayOf[hosts[0]]
			d := cfg.Device(r)
			pl := d.EnsurePrefixList("TST-RANGED")
			pl.Rules = append(pl.Rules, config.PrefixRule{Seq: 5, Deny: true, Prefix: netip.PrefixFrom(view.HostPrefix[hosts[0]].Addr(), 16).Masked(), Le: 32})
			d.OSPF.EnsureInFilters()[d.Interfaces[0].Name] = "TST-RANGED"
			calls++
			if diff := view.InvalidateFilters(); !diff.All() {
				t.Fatalf("round %d: ranged list diff is not all-dirty", round)
			}
		}
		if round == 8 {
			// Concurrent simulations of one Net share its column cache.
			var wg sync.WaitGroup
			snaps := make([]*Snapshot, 3)
			for i := range snaps {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					snaps[i] = SimulateNetOpts(view, opts)
				}(i)
			}
			wg.Wait()
			for i := 1; i < len(snaps); i++ {
				if dev := diffFIBs(snaps[i], snaps[0]); dev != "" {
					t.Fatalf("round %d: concurrent simulation %d diverged at %s", round, i, dev)
				}
			}
		}
		snap = SimulateNetOpts(view, opts)
		fresh, err := SimulateOpts(cfg, opts)
		if err != nil {
			t.Fatal(err)
		}
		if dev := diffFIBs(snap, fresh); dev != "" {
			t.Fatalf("round %d (%d invalidations): reused Net's FIB at %s differs from a fresh simulation", round, calls, dev)
		}
	}
	if changed == 0 {
		t.Fatal("no mutation changed a filter")
	}
}

// diffFIBs returns a device whose FIB differs between two snapshots, or
// "" when every FIB is identical entry for entry. It is the allocation-
// free form of comparing fibFingerprint strings.
func diffFIBs(a, b *Snapshot) string {
	for dev := range b.FIBs {
		if _, ok := a.FIBs[dev]; !ok {
			return dev
		}
	}
	for dev, fa := range a.FIBs {
		fb, ok := b.FIBs[dev]
		if !ok || len(fa) != len(fb) {
			return dev
		}
		for p, ra := range fa {
			rb := fb[p]
			if rb == nil || ra.Source != rb.Source || ra.Metric != rb.Metric || !slices.Equal(ra.NextHops, rb.NextHops) {
				return dev
			}
		}
	}
	return ""
}

// TestFIBLookupMatchesScan pins FIB.Lookup's per-length probes to the
// linear longest-prefix scan they replaced, on random FIBs of nested and
// overlapping prefixes, and checks the invariant the probes rely on:
// every FIB the simulator builds is keyed by masked prefixes.
func TestFIBLookupMatchesScan(t *testing.T) {
	scan := func(f FIB, addr netip.Addr) *Route {
		var best *Route
		for _, r := range f {
			if r.Prefix.Contains(addr) && (best == nil || r.Prefix.Bits() > best.Prefix.Bits()) {
				best = r
			}
		}
		return best
	}
	rng := rand.New(rand.NewSource(61))
	randAddr := func() netip.Addr {
		return netip.AddrFrom4([4]byte{10 + byte(rng.Intn(2)), byte(rng.Intn(3)), byte(rng.Intn(3)), byte(rng.Intn(256))})
	}
	for trial := 0; trial < 300; trial++ {
		f := FIB{}
		for i := 0; i < 1+rng.Intn(80); i++ {
			p := netip.PrefixFrom(randAddr(), rng.Intn(33)).Masked()
			f[p] = &Route{Prefix: p}
		}
		for q := 0; q < 40; q++ {
			addr := randAddr()
			if got, want := f.Lookup(addr), scan(f, addr); got != want {
				t.Fatalf("trial %d: Lookup(%v) = %v, scan = %v", trial, addr, got, want)
			}
		}
	}

	for id, cfg := range catalogNets(t) {
		snap, err := Simulate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for dev, fib := range snap.FIBs {
			for p, rt := range fib {
				if p != p.Masked() || p != rt.Prefix {
					t.Fatalf("%s: %s FIB key %v (route prefix %v) is not masked", id, dev, p, rt.Prefix)
				}
			}
		}
	}
}
