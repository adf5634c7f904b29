// The external test package breaks the import cycle bench_test ←
// internal/experiments ← confmask (the incremental benchmark drives the
// public ImportCheckpoint/Anonymize API).
package confmask_test

// This file provides one testing.B benchmark per table and figure of the
// paper's evaluation (§7), plus micro-benchmarks for the substrates the
// pipeline is built on.
//
// Each figure benchmark regenerates that figure's data. To keep a default
// `go test -bench=.` run in minutes rather than hours, the per-iteration
// figure benchmarks run on the small-network catalog (Enterprise,
// University, Backbone, FatTree04); the full eight-network reproduction —
// the numbers recorded in EXPERIMENTS.md — is produced by
// `go run ./cmd/confmask-bench`.

import (
	"math/rand"
	"net/netip"
	"testing"

	"confmask/internal/anonymize"
	"confmask/internal/config"
	"confmask/internal/experiments"
	"confmask/internal/kdegree"
	"confmask/internal/netgen"
	"confmask/internal/sim"
)

func smallRunner() *experiments.Runner {
	r := experiments.NewRunner(1)
	r.Nets = netgen.SmallCatalog()
	return r
}

func benchErr(b *testing.B, err error) {
	b.Helper()
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkTable2 regenerates Table 2 (network inventory) over the full
// catalog.
func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner(1)
		_, err := r.Table2()
		benchErr(b, err)
	}
}

// BenchmarkFigure5 regenerates the route anonymity measurement.
func BenchmarkFigure5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := smallRunner().Figure5()
		benchErr(b, err)
	}
}

// BenchmarkFigure6 regenerates the topology anonymity measurement.
func BenchmarkFigure6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := smallRunner().Figure6()
		benchErr(b, err)
	}
}

// BenchmarkFigure7 regenerates the clustering coefficient comparison.
func BenchmarkFigure7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := smallRunner().Figure7()
		benchErr(b, err)
	}
}

// BenchmarkFigure8 regenerates the exact path preservation comparison
// against NetHide.
func BenchmarkFigure8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := smallRunner().Figure8()
		benchErr(b, err)
	}
}

// BenchmarkFigure9 regenerates the specification preservation comparison.
func BenchmarkFigure9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := smallRunner().Figure9()
		benchErr(b, err)
	}
}

// BenchmarkFigure10 regenerates the strawman comparison (N_r and U_C).
func BenchmarkFigure10(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := smallRunner().Figure10()
		benchErr(b, err)
	}
}

// BenchmarkFigure11 regenerates the k_R → N_r sweep (and Figure 13's U_C
// readings, which come from the same runs).
func BenchmarkFigure11(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := smallRunner().Figure11()
		benchErr(b, err)
	}
}

// BenchmarkFigure12 regenerates the k_H → N_r sweep (and Figure 14's U_C
// readings).
func BenchmarkFigure12(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := smallRunner().Figure12()
		benchErr(b, err)
	}
}

// BenchmarkFigure15 regenerates the privacy–utility correlation.
func BenchmarkFigure15(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := smallRunner().Figure15()
		benchErr(b, err)
	}
}

// BenchmarkFigure16 regenerates the running-time comparison.
func BenchmarkFigure16(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := smallRunner().Figure16()
		benchErr(b, err)
	}
}

// BenchmarkTable3 regenerates the injected-line breakdown (University
// network; the full grid is produced by cmd/confmask-bench).
func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := smallRunner()
		_, err := r.Table3()
		benchErr(b, err)
	}
}

// BenchmarkAnonymize measures the end-to-end pipeline per network at the
// default parameters (the quantity behind Fig. 16's ConfMask bars).
func BenchmarkAnonymize(b *testing.B) {
	for _, spec := range netgen.Catalog() {
		spec := spec
		b.Run(spec.Name, func(b *testing.B) {
			cfg, err := spec.Build()
			benchErr(b, err)
			opts := anonymize.DefaultOptions()
			opts.Seed = 1
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, _, err := anonymize.Run(cfg, opts)
				benchErr(b, err)
			}
		})
	}
}

// BenchmarkSimulate measures the control-plane simulator (the Batfish
// substitute) per network.
func BenchmarkSimulate(b *testing.B) {
	for _, spec := range netgen.Catalog() {
		spec := spec
		b.Run(spec.Name, func(b *testing.B) {
			cfg, err := spec.Build()
			benchErr(b, err)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, err := sim.Simulate(cfg)
				benchErr(b, err)
			}
		})
	}
}

// parVariants are the worker-pool settings the parallelism benchmarks
// compare: 1 is the plain sequential engine, 0 lets the pool size follow
// GOMAXPROCS, and 4 pins a fixed fan-out so numbers are comparable across
// machines.
var parVariants = []struct {
	name    string
	workers int
}{
	{"seq", 1},
	{"par4", 4},
	{"gomaxprocs", 0},
}

// parNetworks are the two networks the parallelism comparison runs on:
// Backbone is the small BGP+OSPF mix, FatTree08 the largest pure-OSPF
// network and the pipeline's dominant cost in Figure 16.
func parNetworks(b *testing.B) []struct {
	name string
	cfg  *config.Network
} {
	b.Helper()
	backbone, err := netgen.Backbone()
	benchErr(b, err)
	fatTree, err := netgen.FatTree08()
	benchErr(b, err)
	return []struct {
		name string
		cfg  *config.Network
	}{
		{"Backbone", backbone},
		{"FatTree08", fatTree},
	}
}

// BenchmarkSimulateParallelism records sequential-vs-parallel wall clock
// for one full control-plane simulation. Output is byte-identical across
// variants (TestParallelismByteIdentical); only the wall clock moves.
func BenchmarkSimulateParallelism(b *testing.B) {
	for _, net := range parNetworks(b) {
		for _, v := range parVariants {
			b.Run(net.name+"/"+v.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					_, err := sim.SimulateOpts(net.cfg, sim.Options{Parallelism: v.workers})
					benchErr(b, err)
				}
			})
		}
	}
}

// BenchmarkSimulateIncremental measures the rebuild-avoiding loop shape
// Algorithm 1 now uses: one Build, then per-iteration InvalidateFilters +
// SimulateNet reusing the cached filter-independent core. Compare against
// BenchmarkSimulateParallelism/seq, which pays the full Build+SPF cost
// every round — the ratio is the per-iteration saving of the incremental
// engine.
//
// The <net> variant changes no filter, so OSPF reuses every route column
// (pure reuse). The <net>/toggle-deny variant adds or removes one OSPF
// deny per round, as an Algorithm 1 round does, so the round recomputes
// the one dirty prefix plus the protocols that are always recomputed.
func BenchmarkSimulateIncremental(b *testing.B) {
	for _, net := range parNetworks(b) {
		b.Run(net.name, func(b *testing.B) {
			view, err := sim.Build(net.cfg)
			benchErr(b, err)
			sim.SimulateNet(view) // warm the cached core, as iteration 1 does
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				view.InvalidateFilters()
				sim.SimulateNet(view)
			}
		})
		b.Run(net.name+"/toggle-deny", func(b *testing.B) {
			cfg := net.cfg.Clone()
			view, err := sim.Build(cfg)
			benchErr(b, err)
			pl, pfx := toggleTarget(b, cfg, sim.SimulateNet(view))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%2 == 0 {
					pl.Deny(pfx)
				} else {
					pl.RemoveDeny(pfx)
				}
				view.InvalidateFilters()
				sim.SimulateNet(view)
			}
		})
	}
}

// toggleTarget attaches an empty prefix list to the first next hop of
// the first OSPF route toward a host LAN and returns it with that LAN:
// denying the LAN in the list changes that route.
func toggleTarget(b *testing.B, cfg *config.Network, snap *sim.Snapshot) (*config.PrefixList, netip.Prefix) {
	for _, r := range cfg.Routers() {
		for _, h := range cfg.Hosts() {
			pfx := snap.Net.HostPrefix[h]
			rt := snap.FIB(r)[pfx]
			if rt == nil || rt.Source != sim.SrcOSPF {
				continue
			}
			d := cfg.Device(r)
			d.OSPF.EnsureInFilters()[rt.NextHops[0].Iface] = "BENCH-TOGGLE"
			return d.EnsurePrefixList("BENCH-TOGGLE"), pfx
		}
	}
	b.Fatal("no OSPF route toward a host")
	return nil, netip.Prefix{}
}

// BenchmarkAnonymizeParallelism records the end-to-end pipeline wall
// clock at each worker-pool setting on the two reference networks.
func BenchmarkAnonymizeParallelism(b *testing.B) {
	for _, net := range parNetworks(b) {
		for _, v := range parVariants {
			b.Run(net.name+"/"+v.name, func(b *testing.B) {
				opts := anonymize.DefaultOptions()
				opts.Seed = 1
				opts.Parallelism = v.workers
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					_, _, err := anonymize.Run(net.cfg, opts)
					benchErr(b, err)
				}
			})
		}
	}
}

// BenchmarkExtractDataPlane measures host-to-host digest-plane
// extraction; each iteration re-simulates (outside the timer). The
// naive-walker baseline and the seeded dirty-round variant live in
// internal/sim's benchmark of the same name, which can reach the
// test-only reference walker.
func BenchmarkExtractDataPlane(b *testing.B) {
	for _, net := range parNetworks(b) {
		hosts := net.cfg.Hosts()
		for _, v := range parVariants {
			b.Run(net.name+"/"+v.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					snap, err := sim.SimulateOpts(net.cfg, sim.Options{Parallelism: v.workers})
					benchErr(b, err)
					b.StartTimer()
					snap.DataPlaneFor(hosts)
				}
			})
		}
	}
}

// BenchmarkKDegree measures the Liu–Terzi degree anonymization step alone.
func BenchmarkKDegree(b *testing.B) {
	cfg, err := netgen.USCarrier()
	benchErr(b, err)
	snap, err := sim.Simulate(cfg)
	benchErr(b, err)
	topo := snap.Net.Topology()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := topo.RouterSubgraph()
		_, err := kdegree.Anonymize(g, 6, rand.New(rand.NewSource(1)))
		benchErr(b, err)
	}
}

// BenchmarkParseRender measures the configuration codec round trip.
func BenchmarkParseRender(b *testing.B) {
	cfg, err := netgen.Enterprise()
	benchErr(b, err)
	texts := cfg.Render()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net, err := config.ParseNetwork(texts)
		benchErr(b, err)
		net.Render()
	}
}

// BenchmarkAblationNoRouteAnonymity isolates Algorithm 1 (route
// equivalence) from Algorithm 2 — the ablation DESIGN.md calls out for the
// cost split between the two route stages.
func BenchmarkAblationNoRouteAnonymity(b *testing.B) {
	cfg, err := netgen.Bics()
	benchErr(b, err)
	opts := anonymize.DefaultOptions()
	opts.Seed = 1
	opts.SkipRouteAnonymity = true
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _, err := anonymize.Run(cfg, opts)
		benchErr(b, err)
	}
}

// BenchmarkAblationStrawman1 measures the fast-but-leaky baseline on the
// same network for comparison with BenchmarkAblationNoRouteAnonymity.
func BenchmarkAblationStrawman1(b *testing.B) {
	cfg, err := netgen.Bics()
	benchErr(b, err)
	opts := anonymize.DefaultOptions()
	opts.Seed = 1
	opts.Strategy = anonymize.Strawman1
	opts.SkipRouteAnonymity = true
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _, err := anonymize.Run(cfg, opts)
		benchErr(b, err)
	}
}
