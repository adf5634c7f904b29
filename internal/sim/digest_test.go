package sim

import (
	"math/rand"
	"testing"

	"confmask/internal/netgen"
)

// TestPairDigestsMatchDataPlane pins the digest-only extraction path
// against hashing materialized paths: on every evaluation network,
// DataPlaneFor (transient engines, no path materialization) must produce
// exactly the digest DataPlaneOf computes from the cached engines'
// TraceFrom paths for every ordered pair.
func TestPairDigestsMatchDataPlane(t *testing.T) {
	for _, spec := range netgen.Catalog() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			cfg, err := spec.Build()
			if err != nil {
				t.Fatal(err)
			}
			for _, par := range []int{1, 4} {
				snap, err := SimulateOpts(cfg, Options{Parallelism: par})
				if err != nil {
					t.Fatal(err)
				}
				hosts := snap.Hosts()
				pd := snap.DataPlaneFor(hosts)
				dp := DataPlaneOf(hosts, snap.TraceFrom)
				for _, src := range hosts {
					for _, dst := range hosts {
						if src == dst {
							continue
						}
						got, ok := pd.Digest(src, dst)
						if !ok {
							t.Fatalf("par %d: pair %s->%s missing from DataPlane", par, src, dst)
						}
						if want, _ := dp.Digest(src, dst); got != want {
							t.Fatalf("par %d: pair %s->%s digest %x != materialized %x", par, src, dst, got, want)
						}
					}
				}
				if diff := DiffPairs(pd, dp, hosts); len(diff) != 0 {
					t.Fatalf("par %d: unexpected digest diff %v", par, diff)
				}
			}
		})
	}
}

// TestPairDigestsCorruptedFIBs exercises the digest path through the
// loop/deep fallback: corrupted FIBs with forwarding loops and black
// holes must digest identically via DataPlaneFor and hashed TraceFrom
// paths.
func TestPairDigestsCorruptedFIBs(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 10; trial++ {
		cfg := randomSimNet(t, netgen.OSPF, rng)
		snap, err := SimulateOpts(cfg, Options{Parallelism: 1 + rng.Intn(4)})
		if err != nil {
			t.Fatal(err)
		}
		corruptFIBs(snap, rng)
		hosts := snap.Hosts()
		pd := snap.DataPlaneFor(hosts)
		dp := DataPlaneOf(hosts, snap.TraceFrom)
		for _, src := range hosts {
			for _, dst := range hosts {
				if src == dst {
					continue
				}
				got, _ := pd.Digest(src, dst)
				if want, _ := dp.Digest(src, dst); got != want {
					t.Fatalf("trial %d: pair %s->%s digest mismatch", trial, src, dst)
				}
			}
		}
	}
}

// TestPairDigestsDiffPairsMatchesDataPlane checks the digest diff against
// a per-pair comparison of materialized paths across two genuinely
// different snapshots.
func TestPairDigestsDiffPairsMatchesDataPlane(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := randomSimNet(t, netgen.OSPF, rng)
	snapA, err := SimulateOpts(a, Options{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	snapB, err := SimulateOpts(a, Options{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	corruptFIBs(snapB, rng)
	hosts := snapA.Hosts()
	var wantDiff []Pair
	for _, src := range hosts {
		for _, dst := range hosts {
			if src != dst && !samePaths(snapA.TraceFrom(src, dst), snapB.TraceFrom(src, dst)) {
				wantDiff = append(wantDiff, Pair{Src: src, Dst: dst})
			}
		}
	}
	if len(wantDiff) == 0 {
		t.Fatal("corruption left the snapshots forwarding identically")
	}
	gotDiff := DiffPairs(snapA.DataPlaneFor(hosts), snapB.DataPlaneFor(hosts), hosts)
	if len(gotDiff) != len(wantDiff) {
		t.Fatalf("digest diff %d pairs, path diff %d pairs", len(gotDiff), len(wantDiff))
	}
	for i := range gotDiff {
		if gotDiff[i] != wantDiff[i] {
			t.Fatalf("diff[%d] = %v, want %v", i, gotDiff[i], wantDiff[i])
		}
	}
	total := len(hosts) * (len(hosts) - 1)
	if got := ExactlyKeptFraction(snapA.DataPlaneFor(hosts), snapB.DataPlaneFor(hosts), hosts); got != float64(total-len(wantDiff))/float64(total) {
		t.Fatalf("ExactlyKeptFraction = %v inconsistent with %d differing pairs", got, len(wantDiff))
	}
}

// corruptFIBs injects loops and black holes the way the engine tests do:
// random next-hop rewrites between routers plus dropped routes.
func corruptFIBs(snap *Snapshot, rng *rand.Rand) {
	devs := snap.Devices()
	var routers []string
	for _, d := range devs {
		if snap.FIBs[d] != nil && len(snap.FIBs[d]) > 0 {
			routers = append(routers, d)
		}
	}
	for _, d := range routers {
		fib := snap.FIBs[d]
		for pfx, rt := range fib {
			switch rng.Intn(6) {
			case 0: // rewrite a next hop to a random router → possible loop
				if len(rt.NextHops) > 0 {
					nh := rt.NextHops[rng.Intn(len(rt.NextHops))]
					nh.Device = routers[rng.Intn(len(routers))]
					rt.NextHops[rng.Intn(len(rt.NextHops))] = nh
				}
			case 1: // drop the route → black hole
				delete(fib, pfx)
			}
		}
	}
}

// BenchmarkExtractDigestsFatTree08 measures digest-only extraction on
// FatTree08 (64 hosts, 4032 ordered pairs) — the memory-bounded path.
func BenchmarkExtractDigestsFatTree08(b *testing.B) {
	cfg, err := netgen.FatTree08()
	if err != nil {
		b.Fatal(err)
	}
	snap, err := Simulate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	hosts := snap.Hosts()
	b.ReportAllocs()
	b.ResetTimer()
	// DataPlaneFor uses transient engines, so every iteration re-does
	// the full per-destination analysis.
	for i := 0; i < b.N; i++ {
		_ = snap.DataPlaneFor(hosts)
	}
}

// BenchmarkSortPathsByKeyFatTree08 measures the canonical sort +
// fingerprint on real FatTree08 path sets; the digest path hashes through
// one exactly-sized buffer instead of retaining a joined key string.
func BenchmarkSortPathsByKeyFatTree08(b *testing.B) {
	cfg, err := netgen.FatTree08()
	if err != nil {
		b.Fatal(err)
	}
	snap, err := Simulate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	hosts := snap.Hosts()
	var sets [][]Path
	for _, src := range hosts {
		for _, dst := range hosts {
			if ps := snap.TraceFrom(src, dst); len(ps) > 0 && len(sets) < 256 {
				sets = append(sets, ps)
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = sortPathsByKey(sets[i%len(sets)])
	}
}

// TestPairDigestsSeeded pins the seeded extraction path: well-formed seed
// columns are copied verbatim (proving reuse, via a deliberately corrupted
// column), malformed or extra columns fall back to extraction, and an
// ExportColumns round trip reproduces the unseeded plane exactly.
func TestPairDigestsSeeded(t *testing.T) {
	cfg, err := netgen.Enterprise()
	if err != nil {
		t.Fatal(err)
	}
	snap, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hosts := snap.Hosts()
	want := snap.DataPlaneFor(hosts)
	cols := want.ExportColumns()
	if len(cols) != len(hosts) {
		t.Fatalf("ExportColumns: %d columns, want %d", len(cols), len(hosts))
	}

	// Full seed round trip: every pair identical, no extraction needed.
	seeded := snap.DataPlaneForSeeded(hosts, cols)
	if !samePlane(seeded, want) || !samePlane(want, seeded) {
		t.Fatal("fully seeded plane differs from extracted plane")
	}

	// Partial seed: drop one column; that destination is re-extracted.
	partial := make(map[string][]byte, len(cols))
	for d, c := range cols {
		partial[d] = c
	}
	delete(partial, hosts[0])
	if pd := snap.DataPlaneForSeeded(hosts, partial); !samePlane(pd, want) {
		t.Fatal("partially seeded plane differs from extracted plane")
	}

	// Corrupted column: the seeded plane must reflect the corruption —
	// seed columns are trusted, never recomputed — which is the
	// observable proof that seeding skips extraction.
	corrupt := make(map[string][]byte, len(cols))
	for d, c := range cols {
		corrupt[d] = append([]byte(nil), c...)
	}
	victim := hosts[len(hosts)-1]
	corrupt[victim][0] ^= 0xff
	pd := snap.DataPlaneForSeeded(hosts, corrupt)
	var src string
	for _, h := range hosts {
		if h != victim {
			src = h
			break
		}
	}
	got, _ := pd.Digest(src, victim)
	if w, _ := want.Digest(src, victim); got == w {
		t.Fatal("corrupted seed column was recomputed instead of reused")
	}

	// Malformed column lengths fall back to extraction.
	bad := map[string][]byte{victim: corrupt[victim][:8]}
	if pd := snap.DataPlaneForSeeded(hosts, bad); !samePlane(pd, want) {
		t.Fatal("short seed column was not ignored")
	}
	bad[victim] = append(corrupt[victim], 0)
	if pd := snap.DataPlaneForSeeded(hosts, bad); !samePlane(pd, want) {
		t.Fatal("overlong seed column was not ignored")
	}
}

// samePlane reports whether two planes agree on every ordered pair of
// a's hosts.
func samePlane(a, b *DataPlane) bool {
	return len(DiffPairs(a, b, a.Hosts())) == 0
}
