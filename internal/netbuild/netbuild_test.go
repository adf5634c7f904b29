package netbuild

import (
	"net/netip"
	"testing"

	"confmask/internal/config"
	"confmask/internal/netaddr"
)

func router(name string, asn int) *config.Device {
	d := &config.Device{Hostname: name, Kind: config.RouterKind}
	d.OSPF = &config.OSPF{ProcessID: 1, IGPProcess: config.IGPProcess{InFilters: map[string]string{}}}
	if asn > 0 {
		d.BGP = &config.BGP{ASN: asn}
	}
	return d
}

func TestAddP2PLinkSameAS(t *testing.T) {
	cfg := config.NewNetwork()
	cfg.Add(router("a", 0))
	cfg.Add(router("b", 0))
	pool := netaddr.NewPool(nil, nil)
	pfx, err := AddP2PLink(cfg, pool, "a", "b", LinkOpts{CostA: 7, Injected: true})
	if err != nil {
		t.Fatal(err)
	}
	da := cfg.Device("a")
	db := cfg.Device("b")
	if len(da.Interfaces) != 1 || len(db.Interfaces) != 1 {
		t.Fatal("interfaces not added")
	}
	if !da.Interfaces[0].Injected || da.Interfaces[0].OSPFCost != 7 {
		t.Fatalf("interface attrs wrong: %+v", da.Interfaces[0])
	}
	// The /31 must be registered with OSPF on both sides.
	foundA, foundB := false, false
	for _, n := range da.OSPF.Networks {
		if n == pfx {
			foundA = true
		}
	}
	for _, n := range db.OSPF.Networks {
		if n == pfx {
			foundB = true
		}
	}
	if !foundA || !foundB {
		t.Fatal("link prefix not registered with OSPF")
	}
	if da.Interfaces[0].Addr.Masked() != pfx || db.Interfaces[0].Addr.Masked() != pfx {
		t.Fatal("interface addresses not in the allocated prefix")
	}
	if da.Interfaces[0].Addr.Addr() == db.Interfaces[0].Addr.Addr() {
		t.Fatal("both ends share an address")
	}
}

func TestAddP2PLinkCrossAS(t *testing.T) {
	cfg := config.NewNetwork()
	cfg.Add(router("a", 100))
	cfg.Add(router("b", 200))
	pool := netaddr.NewPool(nil, nil)
	if _, err := AddP2PLink(cfg, pool, "a", "b", LinkOpts{}); err != nil {
		t.Fatal(err)
	}
	da := cfg.Device("a")
	db := cfg.Device("b")
	if len(da.BGP.Neighbors) != 1 || da.BGP.Neighbors[0].RemoteAS != 200 {
		t.Fatalf("eBGP neighbor missing on a: %+v", da.BGP.Neighbors)
	}
	if len(db.BGP.Neighbors) != 1 || db.BGP.Neighbors[0].RemoteAS != 100 {
		t.Fatalf("eBGP neighbor missing on b: %+v", db.BGP.Neighbors)
	}
	// Cross-AS links must NOT join the IGP.
	if len(da.OSPF.Networks) != 0 || len(db.OSPF.Networks) != 0 {
		t.Fatal("cross-AS link leaked into OSPF")
	}
}

func TestAddP2PLinkErrors(t *testing.T) {
	cfg := config.NewNetwork()
	cfg.Add(router("a", 0))
	pool := netaddr.NewPool(nil, nil)
	if _, err := AddP2PLink(cfg, pool, "a", "missing", LinkOpts{}); err == nil {
		t.Fatal("unknown device accepted")
	}
}

func TestAddHostLAN(t *testing.T) {
	cfg := config.NewNetwork()
	cfg.Add(router("gw", 100))
	pool := netaddr.NewPool(nil, nil)
	pfx, err := AddHostLAN(cfg, pool, "h1", "gw", HostOpts{AdvertiseBGP: true, Injected: true})
	if err != nil {
		t.Fatal(err)
	}
	h := cfg.Device("h1")
	if h == nil || h.Kind != config.HostKind {
		t.Fatal("host not created")
	}
	if len(h.Statics) != 1 || h.Statics[0].Prefix != netip.MustParsePrefix("0.0.0.0/0") {
		t.Fatalf("host default route wrong: %+v", h.Statics)
	}
	gw := cfg.Device("gw")
	if gw.Interface(gw.Interfaces[0].Name) == nil || !gw.Interfaces[0].Injected {
		t.Fatal("gateway interface missing or not marked injected")
	}
	inBGP := false
	for _, n := range gw.BGP.Networks {
		if n == pfx {
			inBGP = true
		}
	}
	if !inBGP {
		t.Fatal("LAN not originated into BGP")
	}
	if _, err := AddHostLAN(cfg, pool, "h1", "gw", HostOpts{}); err == nil {
		t.Fatal("duplicate host accepted")
	}
	if _, err := AddHostLAN(cfg, pool, "h2", "missing", HostOpts{}); err == nil {
		t.Fatal("unknown router accepted")
	}
}

func TestEnsureIBGPMesh(t *testing.T) {
	cfg := config.NewNetwork()
	for i, n := range []string{"a", "b", "c"} {
		r := router(n, 500)
		r.Interfaces = append(r.Interfaces, &config.Interface{
			Name: "lo0",
			Addr: netip.PrefixFrom(netip.AddrFrom4([4]byte{10, 9, byte(i + 1), 1}), 32),
		})
		cfg.Add(r)
	}
	EnsureIBGPMesh(cfg)
	for _, n := range []string{"a", "b", "c"} {
		if got := len(cfg.Device(n).BGP.Neighbors); got != 2 {
			t.Fatalf("%s has %d iBGP neighbors, want 2", n, got)
		}
	}
	// Idempotent.
	EnsureIBGPMesh(cfg)
	for _, n := range []string{"a", "b", "c"} {
		if got := len(cfg.Device(n).BGP.Neighbors); got != 2 {
			t.Fatalf("EnsureIBGPMesh not idempotent: %s has %d", n, got)
		}
	}
}

func TestPoolFor(t *testing.T) {
	cfg := config.NewNetwork()
	r := router("a", 0)
	r.Interfaces = append(r.Interfaces, &config.Interface{
		Name: "g0", Addr: netip.MustParsePrefix("10.0.0.1/24"),
	})
	cfg.Add(r)
	pool := PoolFor(cfg)
	pfx, err := pool.Alloc(24)
	if err != nil {
		t.Fatal(err)
	}
	if pfx.Overlaps(netip.MustParsePrefix("10.0.0.0/24")) {
		t.Fatalf("pool allocated used space: %v", pfx)
	}
}
