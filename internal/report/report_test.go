package report

import (
	"fmt"
	"strings"
	"testing"

	"confmask/internal/anonymize"
	"confmask/internal/netgen"
)

func TestAuditSafeOutput(t *testing.T) {
	cfg, err := netgen.Backbone()
	if err != nil {
		t.Fatal(err)
	}
	opts := anonymize.DefaultOptions()
	opts.KR = 4
	opts.Seed = 5
	anon, rep, err := anonymize.Run(cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	a, err := Build("backbone-test", cfg, anon, opts, rep)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Equivalent {
		t.Fatalf("equivalence failed: %s", a.EquivalenceNote)
	}
	if !a.Safe() {
		t.Fatalf("ConfMask output should audit safe: %+v", a)
	}
	md := a.Markdown()
	for _, want := range []string{
		"SAFE TO SHARE",
		"k_R (topology anonymity): 4",
		"fake hosts: 9",
		"every original host-to-host path is preserved exactly",
		"re-identification confidence",
	} {
		if !strings.Contains(md, want) {
			t.Errorf("markdown missing %q:\n%s", want, md)
		}
	}
}

func TestAuditFlagsTamperedOutput(t *testing.T) {
	cfg, err := netgen.Backbone()
	if err != nil {
		t.Fatal(err)
	}
	opts := anonymize.DefaultOptions()
	opts.KR = 4
	opts.Seed = 5
	anon, rep, err := anonymize.Run(cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Tamper: delete a prefix-list so a host pair forwards differently.
	tampered := anon.Clone()
	for _, name := range tampered.Routers() {
		d := tampered.Device(name)
		if len(d.PrefixLists) > 0 {
			d.PrefixLists = nil
			if d.OSPF != nil {
				d.OSPF.InFilters = map[string]string{}
			}
			if d.BGP != nil {
				for _, nb := range d.BGP.Neighbors {
					nb.DistributeListIn = ""
				}
			}
		}
	}
	a, err := Build("tampered", cfg, tampered, opts, rep)
	if err != nil {
		t.Fatal(err)
	}
	if a.Equivalent {
		t.Skip("filter removal did not change forwarding on this seed")
	}
	if a.Safe() {
		t.Fatal("tampered output must not audit safe")
	}
	if !strings.Contains(a.Markdown(), "REVIEW REQUIRED") {
		t.Fatal("markdown verdict missing")
	}
}

func TestBuildFromNetworks(t *testing.T) {
	cfg, err := netgen.Backbone()
	if err != nil {
		t.Fatal(err)
	}
	opts := anonymize.DefaultOptions()
	opts.KR = 4
	opts.Seed = 5
	anon, rep, err := anonymize.Run(cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Reconstructed audit must agree with the pipeline-report audit on
	// the inventory and the verdict.
	a1, err := Build("direct", cfg, anon, opts, rep)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := BuildFromNetworks("reconstructed", cfg, anon, opts)
	if err != nil {
		t.Fatal(err)
	}
	if a1.Safe() != a2.Safe() {
		t.Fatalf("verdicts differ: %v vs %v", a1.Safe(), a2.Safe())
	}
	if len(a1.Report.FakeHosts) != len(a2.Report.FakeHosts) {
		t.Fatalf("fake hosts %d vs %d", len(a1.Report.FakeHosts), len(a2.Report.FakeHosts))
	}
	if len(a2.Report.FakeEdges) == 0 {
		t.Fatal("reconstruction found no fake edges")
	}
	if a2.Report.UC <= 0 || a2.Report.UC >= 1 {
		t.Fatalf("reconstructed U_C = %v", a2.Report.UC)
	}
}

// TestBuildFromNetworksMarkdown: a reconstructed audit prints only what
// the diff establishes. It has no pipeline clock or iteration count, and
// it cannot split the added filter lines into equivalence and anonymity
// rules, so it prints their count once, as filter lines.
func TestBuildFromNetworksMarkdown(t *testing.T) {
	cfg, err := netgen.Backbone()
	if err != nil {
		t.Fatal(err)
	}
	opts := anonymize.DefaultOptions()
	opts.KR = 4
	opts.Seed = 5
	anon, _, err := anonymize.Run(cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	a, err := BuildFromNetworks("reconstructed", cfg, anon, opts)
	if err != nil {
		t.Fatal(err)
	}
	md := a.Markdown()
	for _, bad := range []string{"pipeline time", "equivalence iterations", "route filters"} {
		if strings.Contains(md, bad) {
			t.Errorf("reconstructed audit prints %q:\n%s", bad, md)
		}
	}
	filterLines := fmt.Sprintf("%d filter (", a.Report.AddedLines.Filter)
	if a.Report.AddedLines.Filter == 0 || strings.Count(md, filterLines) != 1 {
		t.Errorf("want the filter-line count once as %q:\n%s", filterLines, md)
	}
}

func TestAuditFakeRouters(t *testing.T) {
	cfg, err := netgen.FatTree04()
	if err != nil {
		t.Fatal(err)
	}
	opts := anonymize.DefaultOptions()
	opts.Seed = 2
	opts.FakeRouters = 2
	anon, rep, err := anonymize.Run(cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	a, err := Build("ft", cfg, anon, opts, rep)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Safe() {
		t.Fatalf("scale-obfuscated output should audit safe: unconf=%d deadTP=%d reid=%v",
			len(a.UnconfiguredLinks), a.DeadLinkTruePos, a.MaxReidentConf)
	}
	if !strings.Contains(a.Markdown(), "fake routers: 2") {
		t.Fatal("fake routers missing from audit")
	}
}
