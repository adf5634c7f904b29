package config

import (
	"net/netip"
	"strings"
	"testing"
)

func semdiffDevice() *Device {
	return &Device{
		Hostname: "r1",
		Kind:     RouterKind,
		Interfaces: []*Interface{
			{Name: "Ethernet0", Addr: netip.MustParsePrefix("10.0.0.1/24"), Description: "to-r2", OSPFCost: 5},
			{Name: "Ethernet1", Addr: netip.MustParsePrefix("10.0.1.1/24"), Extra: []string{" shutdown-timer 5"}},
		},
		OSPF: &OSPF{
			ProcessID: 1,
			IGPProcess: IGPProcess{
				Networks:  []netip.Prefix{netip.MustParsePrefix("10.0.0.0/24"), netip.MustParsePrefix("10.0.1.0/24")},
				InFilters: map[string]string{"Ethernet0": "pl-in"},
			},
		},
		BGP: &BGP{
			ASN:      65001,
			RouterID: netip.MustParseAddr("10.0.0.1"),
			Networks: []netip.Prefix{netip.MustParsePrefix("10.0.0.0/24")},
			Neighbors: []*BGPNeighbor{
				{Addr: netip.MustParseAddr("10.0.0.2"), RemoteAS: 65002, DistributeListIn: "pl-in"},
				{Addr: netip.MustParseAddr("10.0.1.2"), RemoteAS: 65003},
			},
		},
		PrefixLists: []*PrefixList{
			{Name: "pl-in", Rules: []PrefixRule{{Seq: 5, Deny: true, Prefix: netip.MustParsePrefix("10.9.0.0/16"), Le: 32}}},
		},
		Statics: []StaticRoute{{Prefix: netip.MustParsePrefix("10.8.0.0/16"), NextHop: netip.MustParseAddr("10.0.0.2")}},
		Extra:   []string{"banner motd ^old^"},
	}
}

func TestSemanticDiffIgnoresCosmeticEdits(t *testing.T) {
	a := semdiffDevice()
	b := semdiffDevice()
	b.Extra = []string{"banner motd ^new^", "service timestamps"}
	b.Interfaces[0].Description = "uplink to r2 (edited)"
	b.Interfaces[1].Extra = nil
	if d := SemanticDiff(a, b); d != "" {
		t.Fatalf("cosmetic edit reported as semantic: %s", d)
	}
}

func TestSemanticDiffOrderInsensitiveFields(t *testing.T) {
	a := semdiffDevice()
	b := semdiffDevice()
	// Render sorts protocol networks and BGP neighbors, so reordering
	// them must not register as a semantic change.
	b.OSPF.Networks[0], b.OSPF.Networks[1] = b.OSPF.Networks[1], b.OSPF.Networks[0]
	b.BGP.Neighbors[0], b.BGP.Neighbors[1] = b.BGP.Neighbors[1], b.BGP.Neighbors[0]
	if d := SemanticDiff(a, b); d != "" {
		t.Fatalf("reordered set-like fields reported as semantic: %s", d)
	}
}

func TestSemanticDiffDetectsSemanticEdits(t *testing.T) {
	cases := []struct {
		name string
		edit func(d *Device)
		want string
	}{
		{"hostname", func(d *Device) { d.Hostname = "r9" }, "hostname"},
		{"kind", func(d *Device) { d.Kind = HostKind }, "kind"},
		{"iface-addr", func(d *Device) { d.Interfaces[0].Addr = netip.MustParsePrefix("10.0.0.9/24") }, "address"},
		{"iface-cost", func(d *Device) { d.Interfaces[0].OSPFCost = 7 }, "ospf cost"},
		{"iface-delay", func(d *Device) { d.Interfaces[1].Delay = 20 }, "delay"},
		{"iface-order", func(d *Device) {
			d.Interfaces[0], d.Interfaces[1] = d.Interfaces[1], d.Interfaces[0]
		}, "order matters"},
		{"iface-removed", func(d *Device) { d.Interfaces = d.Interfaces[:1] }, "interfaces"},
		{"ospf-network", func(d *Device) {
			d.OSPF.Networks = append(d.OSPF.Networks, netip.MustParsePrefix("10.7.0.0/24"))
		}, "ospf networks"},
		{"ospf-gone", func(d *Device) { d.OSPF = nil }, "ospf presence"},
		{"rip-added", func(d *Device) { d.RIP = &RIP{} }, "rip presence"},
		{"eigrp-added", func(d *Device) { d.EIGRP = &EIGRP{ASN: 7} }, "eigrp presence"},
		{"filter", func(d *Device) { d.OSPF.InFilters["Ethernet0"] = "pl-other" }, "distribute-list"},
		{"bgp-asn", func(d *Device) { d.BGP.ASN = 65009 }, "bgp AS"},
		{"bgp-neighbor", func(d *Device) { d.BGP.Neighbors[0].RemoteAS = 65009 }, "neighbor"},
		{"prefix-rule", func(d *Device) { d.PrefixLists[0].Rules[0].Le = 24 }, "rule"},
		{"static", func(d *Device) { d.Statics[0].Discard = true }, "static route"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := semdiffDevice()
			tc.edit(b)
			d := SemanticDiff(semdiffDevice(), b)
			if d == "" {
				t.Fatalf("edit not detected")
			}
			if !strings.Contains(d, tc.want) {
				t.Fatalf("diff %q does not mention %q", d, tc.want)
			}
		})
	}
}

func TestSemanticDiffNil(t *testing.T) {
	if d := SemanticDiff(nil, nil); d != "" {
		t.Fatalf("nil vs nil: %s", d)
	}
	if d := SemanticDiff(semdiffDevice(), nil); d == "" {
		t.Fatal("nil mismatch not detected")
	}
}
