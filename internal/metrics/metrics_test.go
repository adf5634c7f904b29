package metrics

import (
	"math"
	"sort"
	"testing"

	"confmask/internal/sim"
)

func delivered(hops ...string) sim.Path {
	return sim.Path{Hops: hops, Status: sim.Delivered}
}

// fromPairs serves a fixed path table as the hosts and trace function
// ComputeRouteAnonymity reads; pairs outside the table have no paths.
func fromPairs(pairs map[sim.Pair][]sim.Path) ([]string, func(src, dst string) []sim.Path) {
	seen := make(map[string]bool)
	var hosts []string
	for k := range pairs {
		for _, h := range []string{k.Src, k.Dst} {
			if !seen[h] {
				seen[h] = true
				hosts = append(hosts, h)
			}
		}
	}
	sort.Strings(hosts)
	return hosts, func(src, dst string) []sim.Path { return pairs[sim.Pair{Src: src, Dst: dst}] }
}

func TestComputeRouteAnonymityBasic(t *testing.T) {
	hosts, trace := fromPairs(map[sim.Pair][]sim.Path{
		// Real host pair and its fake twin take different paths between
		// the same edge routers r1→r9.
		{Src: "h1", Dst: "h2"}:     {delivered("h1", "r1", "r5", "r9", "h2")},
		{Src: "h1", Dst: "h2-fk1"}: {delivered("h1", "r1", "r6", "r9", "h2-fk1")},
		// A pair on a single shared gateway is ignored.
		{Src: "h3", Dst: "h4"}: {delivered("h3", "r2", "h4")},
	})
	gw := map[string]string{"h1": "r1", "h2": "r9", "h2-fk1": "r9", "h3": "r2", "h4": "r2"}
	got := ComputeRouteAnonymity(hosts, trace, gw)
	if got.Pairs != 1 {
		t.Fatalf("pairs = %d, want 1", got.Pairs)
	}
	if got.Min != 2 || got.Avg != 2 {
		t.Fatalf("N_r = min %d avg %v, want 2/2", got.Min, got.Avg)
	}
}

func TestComputeRouteAnonymityRepresentativePath(t *testing.T) {
	// One host pair with a large ECMP set must count as ONE observed
	// path, not len(ECMP) paths.
	hosts, trace := fromPairs(map[sim.Pair][]sim.Path{
		{Src: "h1", Dst: "h2"}: {
			delivered("h1", "r1", "ra", "r9", "h2"),
			delivered("h1", "r1", "rb", "r9", "h2"),
			delivered("h1", "r1", "rc", "r9", "h2"),
		},
	})
	gw := map[string]string{"h1": "r1", "h2": "r9"}
	got := ComputeRouteAnonymity(hosts, trace, gw)
	if got.Min != 1 || got.Avg != 1 {
		t.Fatalf("ECMP fan-out leaked into N_r: %+v", got)
	}
}

func TestComputeRouteAnonymityIgnoresFailures(t *testing.T) {
	hosts, trace := fromPairs(map[sim.Pair][]sim.Path{
		{Src: "h1", Dst: "h2"}: {{Hops: []string{"h1", "r1"}, Status: sim.BlackHoled}},
	})
	gw := map[string]string{"h1": "r1", "h2": "r9"}
	got := ComputeRouteAnonymity(hosts, trace, gw)
	if got.Pairs != 0 || got.Min != 0 {
		t.Fatalf("failure paths counted: %+v", got)
	}
}

func TestPearson(t *testing.T) {
	x := []float64{1, 2, 3, 4}
	if r := Pearson(x, []float64{2, 4, 6, 8}); math.Abs(r-1) > 1e-12 {
		t.Fatalf("perfect positive r = %v", r)
	}
	if r := Pearson(x, []float64{8, 6, 4, 2}); math.Abs(r+1) > 1e-12 {
		t.Fatalf("perfect negative r = %v", r)
	}
	if r := Pearson(x, []float64{5, 5, 5, 5}); r != 0 {
		t.Fatalf("constant sample r = %v", r)
	}
	if r := Pearson(x, []float64{1, 2}); r != 0 {
		t.Fatalf("mismatched lengths r = %v", r)
	}
	// Symmetry.
	y := []float64{3, 1, 4, 1}
	if Pearson(x, y) != Pearson(y, x) {
		t.Fatal("Pearson not symmetric")
	}
}

func TestQuantiles(t *testing.T) {
	s := []float64{4, 1, 3, 2}
	got := Quantiles(s, 0, 0.5, 1)
	if got[0] != 1 || got[1] != 2.5 || got[2] != 4 {
		t.Fatalf("quantiles = %v", got)
	}
	if out := Quantiles(nil, 0.5); out[0] != 0 {
		t.Fatalf("empty sample quantile = %v", out)
	}
}

func TestGatewaysWithFakes(t *testing.T) {
	view := &sim.Net{GatewayOf: map[string]string{"h1": "r1", "h1-fk1": "r1"}}
	got := GatewaysWithFakes(view)
	if got["h1"] != "r1" || got["h1-fk1"] != "r1" {
		t.Fatalf("gateways = %v", got)
	}
}
