package config

import (
	"net/netip"
	"strings"
	"testing"
)

func TestJunosRoundTripRouter(t *testing.T) {
	d := sampleRouter()
	text := d.RenderJunos()
	got, err := ParseJunosDevice(text)
	if err != nil {
		t.Fatalf("ParseJunosDevice: %v\n%s", err, text)
	}
	if got.RenderJunos() != text {
		t.Fatalf("junos round trip diverged:\n--- first ---\n%s\n--- second ---\n%s", text, got.RenderJunos())
	}
}

func TestJunosRoundTripHost(t *testing.T) {
	d := sampleHost()
	text := d.RenderJunos()
	got, err := ParseJunosDevice(text)
	if err != nil {
		t.Fatalf("ParseJunosDevice: %v", err)
	}
	if got.Kind != HostKind {
		t.Fatal("host kind lost")
	}
	if got.RenderJunos() != text {
		t.Fatal("junos host round trip diverged")
	}
}

func TestJunosCrossSyntaxEquivalence(t *testing.T) {
	// IOS → model → Junos → model: the two models must render the same
	// IOS text (i.e. the Junos projection loses nothing the simulator
	// reads). Network statements are normalized to the covered interface
	// subnets, so compare the semantic fields.
	d := sampleRouter()
	viaJunos, err := ParseJunosDevice(d.RenderJunos())
	if err != nil {
		t.Fatal(err)
	}
	if viaJunos.Hostname != d.Hostname {
		t.Fatal("hostname changed")
	}
	if len(viaJunos.Interfaces) != len(d.Interfaces) {
		t.Fatalf("interface count %d vs %d", len(viaJunos.Interfaces), len(d.Interfaces))
	}
	for idx, i := range d.Interfaces {
		j := viaJunos.Interface(i.Name)
		if j == nil || j.Addr != i.Addr || j.OSPFCost != i.OSPFCost || j.Description != i.Description {
			t.Fatalf("interface %d mismatch: %+v vs %+v", idx, i, j)
		}
		if strings.Join(j.Extra, "|") != strings.Join(i.Extra, "|") {
			t.Fatalf("interface extras mismatch: %v vs %v", i.Extra, j.Extra)
		}
	}
	if (viaJunos.OSPF == nil) != (d.OSPF == nil) {
		t.Fatal("OSPF presence changed")
	}
	if viaJunos.OSPF.InFilters["GigabitEthernet0/0"] != "RejPfxs" {
		t.Fatalf("OSPF filters lost: %v", viaJunos.OSPF.InFilters)
	}
	if viaJunos.BGP == nil || viaJunos.BGP.ASN != d.BGP.ASN || len(viaJunos.BGP.Neighbors) != 1 {
		t.Fatalf("BGP lost: %+v", viaJunos.BGP)
	}
	if viaJunos.BGP.Neighbors[0].DistributeListIn != "RejPfxs" {
		t.Fatal("BGP import filter lost")
	}
	if len(viaJunos.PrefixLists) != len(d.PrefixLists) {
		t.Fatal("prefix lists lost")
	}
}

func TestJunosEIGRPAndDelay(t *testing.T) {
	d := &Device{Hostname: "r1", Kind: RouterKind}
	d.Interfaces = append(d.Interfaces, &Interface{
		Name:  "ge-0/0/0",
		Addr:  netip.MustParsePrefix("10.0.0.0/31"),
		Delay: 55,
	})
	d.EIGRP = &EIGRP{
		ASN: 100,
		IGPProcess: IGPProcess{
			Networks:  []netip.Prefix{netip.MustParsePrefix("10.0.0.0/31")},
			InFilters: map[string]string{"ge-0/0/0": "F"},
		},
	}
	d.EnsurePrefixList("F").Deny(netip.MustParsePrefix("10.5.0.0/24"))
	text := d.RenderJunos()
	got, err := ParseJunosDevice(text)
	if err != nil {
		t.Fatalf("%v\n%s", err, text)
	}
	if got.EIGRP == nil || got.EIGRP.ASN != 100 {
		t.Fatalf("EIGRP lost: %+v", got.EIGRP)
	}
	if got.Interfaces[0].Delay != 55 {
		t.Fatalf("delay lost: %+v", got.Interfaces[0])
	}
	if got.EIGRP.InFilters["ge-0/0/0"] != "F" {
		t.Fatalf("EIGRP filter lost: %v", got.EIGRP.InFilters)
	}
	if got.RenderJunos() != text {
		t.Fatal("round trip diverged")
	}
}

func TestJunosParseErrors(t *testing.T) {
	cases := []string{
		"delete something\n",     // not a set statement
		"set system host-name\n", // missing value → unrecognized
		"set interfaces ge-0 unit 0 family inet address notanip\n",
		"set protocols bgp group peers neighbor 1.2.3.4 import L\n", // unknown neighbor
	}
	for _, c := range cases {
		if _, err := ParseJunosDevice("set system host-name x\n" + c); err == nil {
			t.Errorf("expected error for %q", c)
		}
	}
	if _, err := ParseJunosDevice("set apply-macro extra \"x\"\n"); err == nil {
		t.Error("missing hostname accepted")
	}
}

func TestDetectSyntax(t *testing.T) {
	if DetectSyntax("hostname r1\n!\n") != "ios" {
		t.Fatal("IOS not detected")
	}
	if DetectSyntax("# comment\nset system host-name r1\n") != "junos" {
		t.Fatal("Junos not detected")
	}
	if DetectSyntax("") != "ios" {
		t.Fatal("default should be ios")
	}
}

func TestFieldsQuoted(t *testing.T) {
	got := fieldsQuoted(`set interfaces x description "to r2 uplink" end`)
	want := []string{"set", "interfaces", "x", "description", "to r2 uplink", "end"}
	if len(got) != len(want) {
		t.Fatalf("fields = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("field %d = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestJunosNetworkRoundTrip(t *testing.T) {
	n := NewNetwork()
	n.Add(sampleRouter())
	n.Add(sampleHost())
	texts := n.RenderJunos()
	got, err := ParseJunosNetwork(texts)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Devices) != 2 {
		t.Fatalf("devices = %d", len(got.Devices))
	}
	dup := map[string]string{"a": texts["r1"], "b": texts["r1"]}
	if _, err := ParseJunosNetwork(dup); err == nil {
		t.Fatal("duplicate hostname accepted")
	}
}
