package config

import (
	"fmt"
	"net/netip"
	"sort"
	"strconv"
	"strings"
)

// This file implements a second vendor syntax for the same device model:
// Junos-style flat `set` statements. The paper notes ConfMask "is easily
// extendable to more protocols and vendors using the same logic" (§6);
// this codec demonstrates that: the anonymization pipeline operates on the
// vendor-neutral model, so a network captured in Junos syntax anonymizes
// identically and can be re-emitted in either syntax.
//
// The dialect is the natural flat-config subset needed for our model.
// Junos expresses IGP participation per interface rather than via network
// statements, so rendering projects each network statement onto the
// interfaces it covers, and parsing recovers network statements from the
// listed interfaces' subnets — a semantics-preserving round trip, because
// enablement is decided by address containment in both forms.

// RenderJunos returns the device configuration as Junos-style `set`
// statements.
func (d *Device) RenderJunos() string {
	var b strings.Builder
	fmt.Fprintf(&b, "set system host-name %s\n", junosString(d.Hostname))
	if d.Kind == HostKind {
		b.WriteString("set system services host-endpoint\n")
	}

	for _, i := range d.Interfaces {
		if i.Description != "" {
			fmt.Fprintf(&b, "set interfaces %s description %s\n", i.Name, junosString(i.Description))
		}
		if i.Addr.IsValid() {
			fmt.Fprintf(&b, "set interfaces %s unit 0 family inet address %s\n", i.Name, i.Addr)
		}
		if i.Delay > 0 {
			fmt.Fprintf(&b, "set interfaces %s delay %d\n", i.Name, i.Delay)
		}
		for _, x := range i.Extra {
			fmt.Fprintf(&b, "set interfaces %s apply-macro extra %s\n", i.Name, junosString(strings.TrimSpace(x)))
		}
	}

	if d.OSPF != nil {
		for _, i := range d.Interfaces {
			if !coveredBy(i, d.OSPF.Networks) {
				continue
			}
			fmt.Fprintf(&b, "set protocols ospf area 0.0.0.0 interface %s", i.Name)
			if i.OSPFCost > 0 {
				fmt.Fprintf(&b, " metric %d", i.OSPFCost)
			}
			b.WriteString("\n")
		}
		for _, iface := range sortedKeys(d.OSPF.InFilters) {
			fmt.Fprintf(&b, "set protocols ospf import-list %s interface %s\n", d.OSPF.InFilters[iface], iface)
		}
	}
	if d.RIP != nil {
		for _, i := range d.Interfaces {
			if coveredBy(i, d.RIP.Networks) {
				fmt.Fprintf(&b, "set protocols rip group internal neighbor %s\n", i.Name)
			}
		}
		for _, iface := range sortedKeys(d.RIP.InFilters) {
			fmt.Fprintf(&b, "set protocols rip import-list %s interface %s\n", d.RIP.InFilters[iface], iface)
		}
	}
	if d.EIGRP != nil {
		for _, i := range d.Interfaces {
			if coveredBy(i, d.EIGRP.Networks) {
				fmt.Fprintf(&b, "set protocols eigrp %d interface %s\n", d.EIGRP.ASN, i.Name)
			}
		}
		for _, iface := range sortedKeys(d.EIGRP.InFilters) {
			fmt.Fprintf(&b, "set protocols eigrp %d import-list %s interface %s\n", d.EIGRP.ASN, d.EIGRP.InFilters[iface], iface)
		}
	}
	if d.BGP != nil {
		fmt.Fprintf(&b, "set routing-options autonomous-system %d\n", d.BGP.ASN)
		if d.BGP.RouterID.IsValid() {
			fmt.Fprintf(&b, "set routing-options router-id %s\n", d.BGP.RouterID)
		}
		for _, p := range sortedPrefixes(d.BGP.Networks) {
			fmt.Fprintf(&b, "set protocols bgp export-network %s\n", p.Masked())
		}
		nbrs := append([]*BGPNeighbor(nil), d.BGP.Neighbors...)
		sort.Slice(nbrs, func(i, j int) bool { return nbrs[i].Addr.Compare(nbrs[j].Addr) < 0 })
		for _, nb := range nbrs {
			fmt.Fprintf(&b, "set protocols bgp group peers neighbor %s peer-as %d\n", nb.Addr, nb.RemoteAS)
			if nb.DistributeListIn != "" {
				fmt.Fprintf(&b, "set protocols bgp group peers neighbor %s import %s\n", nb.Addr, nb.DistributeListIn)
			}
		}
	}

	for _, pl := range d.PrefixLists {
		for _, r := range pl.Rules {
			action := "permit"
			if r.Deny {
				action = "deny"
			}
			if r.Le > 0 {
				fmt.Fprintf(&b, "set policy-options prefix-list %s seq %d %s %s le %d\n", pl.Name, r.Seq, action, r.Prefix.Masked(), r.Le)
			} else {
				fmt.Fprintf(&b, "set policy-options prefix-list %s seq %d %s %s\n", pl.Name, r.Seq, action, r.Prefix.Masked())
			}
		}
	}
	for _, s := range d.Statics {
		fmt.Fprintf(&b, "set routing-options static route %s next-hop %s\n", s.Prefix.Masked(), s.NextHop)
	}
	for _, x := range d.Extra {
		fmt.Fprintf(&b, "set apply-macro extra \"%s\"\n", strings.TrimSpace(x))
	}
	return b.String()
}

func coveredBy(i *Interface, networks []netip.Prefix) bool {
	if !i.Addr.IsValid() {
		return false
	}
	for _, nw := range networks {
		if nw.Contains(i.Addr.Addr()) {
			return true
		}
	}
	return false
}

// ParseJunosDevice parses Junos-style `set` statements into a Device.
func ParseJunosDevice(text string) (*Device, error) {
	d := &Device{Kind: RouterKind}
	type igpIface struct {
		name   string
		metric int
	}
	var ospfIfaces, ripIfaces, eigrpIfaces []igpIface
	var ospfFilters = map[string]string{}
	var ripFilters = map[string]string{}
	var eigrpFilters = map[string]string{}
	eigrpASN := 0
	bgpASN := 0

	iface := func(name string) *Interface {
		if i := d.Interface(name); i != nil {
			return i
		}
		i := &Interface{Name: name}
		d.Interfaces = append(d.Interfaces, i)
		return i
	}

	for ln, raw := range strings.Split(text, "\n") {
		line := strings.TrimSpace(raw)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := fieldsQuoted(line)
		if len(f) < 2 || f[0] != "set" {
			return nil, fmt.Errorf("config: junos line %d: expected `set ...`: %q", ln+1, line)
		}
		f = f[1:]
		switch {
		case match(f, "system", "host-name", "*"):
			d.Hostname = f[2]
		case match(f, "system", "services", "host-endpoint"):
			d.Kind = HostKind
		case match(f, "interfaces", "*", "description", "*"):
			iface(f[1]).Description = f[3]
		case match(f, "interfaces", "*", "unit", "0", "family", "inet", "address", "*"):
			p, err := netip.ParsePrefix(f[7])
			if err != nil {
				return nil, fmt.Errorf("config: junos line %d: bad address %q", ln+1, f[7])
			}
			iface(f[1]).Addr = p
		case match(f, "interfaces", "*", "delay", "*"):
			v, err := strconv.Atoi(f[3])
			if err != nil {
				return nil, fmt.Errorf("config: junos line %d: bad delay %q", ln+1, f[3])
			}
			iface(f[1]).Delay = v
		case match(f, "interfaces", "*", "apply-macro", "extra", "*"):
			i := iface(f[1])
			i.Extra = append(i.Extra, f[4])
		case match(f, "protocols", "ospf", "area", "*", "interface", "*", "metric", "*"):
			m, err := strconv.Atoi(f[7])
			if err != nil {
				return nil, fmt.Errorf("config: junos line %d: bad metric %q", ln+1, f[7])
			}
			ospfIfaces = append(ospfIfaces, igpIface{name: f[5], metric: m})
		case match(f, "protocols", "ospf", "area", "*", "interface", "*"):
			ospfIfaces = append(ospfIfaces, igpIface{name: f[5]})
		case match(f, "protocols", "ospf", "import-list", "*", "interface", "*"):
			ospfFilters[f[5]] = f[3]
		case match(f, "protocols", "rip", "group", "*", "neighbor", "*"):
			ripIfaces = append(ripIfaces, igpIface{name: f[5]})
		case match(f, "protocols", "rip", "import-list", "*", "interface", "*"):
			ripFilters[f[5]] = f[3]
		case match(f, "protocols", "eigrp", "*", "interface", "*"):
			eigrpIfaces = append(eigrpIfaces, igpIface{name: f[4]})
			eigrpASN = atoiOr(f[2], eigrpASN)
		case match(f, "protocols", "eigrp", "*", "import-list", "*", "interface", "*"):
			eigrpFilters[f[6]] = f[4]
			eigrpASN = atoiOr(f[2], eigrpASN)
		case match(f, "routing-options", "autonomous-system", "*"):
			asn, err := strconv.Atoi(f[2])
			if err != nil {
				return nil, fmt.Errorf("config: junos line %d: bad AS %q", ln+1, f[2])
			}
			bgpASN = asn
		case match(f, "routing-options", "router-id", "*"):
			id, err := netip.ParseAddr(f[2])
			if err != nil {
				return nil, fmt.Errorf("config: junos line %d: bad router-id %q", ln+1, f[2])
			}
			d.ensureBGP().RouterID = id
		case match(f, "protocols", "bgp", "export-network", "*"):
			p, err := netip.ParsePrefix(f[3])
			if err != nil {
				return nil, fmt.Errorf("config: junos line %d: bad network %q", ln+1, f[3])
			}
			b := d.ensureBGP()
			b.Networks = append(b.Networks, p.Masked())
		case match(f, "protocols", "bgp", "group", "*", "neighbor", "*", "peer-as", "*"):
			addr, err := netip.ParseAddr(f[5])
			asn, err2 := strconv.Atoi(f[7])
			if err != nil || err2 != nil {
				return nil, fmt.Errorf("config: junos line %d: bad neighbor %q", ln+1, line)
			}
			b := d.ensureBGP()
			b.Neighbors = append(b.Neighbors, &BGPNeighbor{Addr: addr, RemoteAS: asn})
		case match(f, "protocols", "bgp", "group", "*", "neighbor", "*", "import", "*"):
			addr, err := netip.ParseAddr(f[5])
			if err != nil {
				return nil, fmt.Errorf("config: junos line %d: bad neighbor %q", ln+1, f[5])
			}
			b := d.ensureBGP()
			nb := b.neighbor(addr)
			if nb == nil {
				return nil, fmt.Errorf("config: junos line %d: import for unknown neighbor %s", ln+1, addr)
			}
			nb.DistributeListIn = f[7]
		case match(f, "policy-options", "prefix-list", "*", "seq", "*", "*", "*") ||
			match(f, "policy-options", "prefix-list", "*", "seq", "*", "*", "*", "le", "*"):
			if err := d.parseJunosPrefixRule(f); err != nil {
				return nil, fmt.Errorf("config: junos line %d: %v", ln+1, err)
			}
		case match(f, "routing-options", "static", "route", "*", "next-hop", "*"):
			p, err := netip.ParsePrefix(f[3])
			nh, err2 := netip.ParseAddr(f[5])
			if err != nil || err2 != nil {
				return nil, fmt.Errorf("config: junos line %d: bad static %q", ln+1, line)
			}
			d.Statics = append(d.Statics, StaticRoute{Prefix: p.Masked(), NextHop: nh})
		case match(f, "apply-macro", "extra", "*"):
			d.Extra = append(d.Extra, f[2])
		default:
			return nil, fmt.Errorf("config: junos line %d: unrecognized statement %q", ln+1, line)
		}
	}
	if d.Hostname == "" {
		return nil, fmt.Errorf("config: junos: missing host-name")
	}

	// Recover network statements from per-interface protocol enablement.
	toNetworks := func(ifaces []igpIface) []netip.Prefix {
		var out []netip.Prefix
		seen := map[netip.Prefix]bool{}
		for _, ii := range ifaces {
			i := d.Interface(ii.name)
			if i == nil || !i.Addr.IsValid() {
				continue
			}
			p := i.Addr.Masked()
			if !seen[p] {
				seen[p] = true
				out = append(out, p)
			}
		}
		return out
	}
	if len(ospfIfaces) > 0 || len(ospfFilters) > 0 {
		d.OSPF = &OSPF{ProcessID: 1, IGPProcess: IGPProcess{Networks: toNetworks(ospfIfaces), InFilters: ospfFilters}}
		for _, ii := range ospfIfaces {
			if ii.metric > 0 {
				if i := d.Interface(ii.name); i != nil {
					i.OSPFCost = ii.metric
				}
			}
		}
	}
	if len(ripIfaces) > 0 || len(ripFilters) > 0 {
		d.RIP = &RIP{IGPProcess: IGPProcess{Networks: toNetworks(ripIfaces), InFilters: ripFilters}}
	}
	if len(eigrpIfaces) > 0 || len(eigrpFilters) > 0 {
		d.EIGRP = &EIGRP{ASN: eigrpASN, IGPProcess: IGPProcess{Networks: toNetworks(eigrpIfaces), InFilters: eigrpFilters}}
	}
	if bgpASN != 0 {
		d.ensureBGP().ASN = bgpASN
	}
	return d, nil
}

func (d *Device) ensureBGP() *BGP {
	if d.BGP == nil {
		d.BGP = &BGP{}
	}
	return d.BGP
}

func (d *Device) parseJunosPrefixRule(f []string) error {
	// policy-options prefix-list NAME seq N ACTION PREFIX [le N]
	seq, err := strconv.Atoi(f[4])
	if err != nil {
		return fmt.Errorf("bad seq %q", f[4])
	}
	var deny bool
	switch f[5] {
	case "deny":
		deny = true
	case "permit":
	default:
		return fmt.Errorf("bad action %q", f[5])
	}
	p, err := netip.ParsePrefix(f[6])
	if err != nil {
		return fmt.Errorf("bad prefix %q", f[6])
	}
	le := 0
	if len(f) >= 9 && f[7] == "le" {
		le, err = strconv.Atoi(f[8])
		if err != nil {
			return fmt.Errorf("bad le %q", f[8])
		}
	}
	pl := d.EnsurePrefixList(f[2])
	pl.Rules = append(pl.Rules, PrefixRule{Seq: seq, Deny: deny, Prefix: p.Masked(), Le: le})
	return nil
}

// match reports whether fields follow the pattern; "*" matches any token.
func match(f []string, pattern ...string) bool {
	if len(f) != len(pattern) {
		return false
	}
	for i, p := range pattern {
		if p != "*" && f[i] != p {
			return false
		}
	}
	return true
}

func atoiOr(s string, def int) int {
	if v, err := strconv.Atoi(s); err == nil {
		return v
	}
	return def
}

// junosString renders a free-form value (hostname, description) as a
// single field fieldsQuoted will recover verbatim: values with spaces are
// quoted, and embedded double quotes — which the field syntax cannot
// represent — are dropped, matching what parsing them would yield anyway.
func junosString(s string) string {
	s = strings.ReplaceAll(s, `"`, "")
	if strings.Contains(s, " ") {
		return `"` + s + `"`
	}
	return s
}

// fieldsQuoted splits on spaces but keeps double-quoted spans as one field
// (without the quotes).
func fieldsQuoted(s string) []string {
	var out []string
	var cur strings.Builder
	inQuote := false
	flush := func() {
		if cur.Len() > 0 {
			out = append(out, cur.String())
			cur.Reset()
		}
	}
	for _, r := range s {
		switch {
		case r == '"':
			inQuote = !inQuote
			if !inQuote {
				out = append(out, cur.String())
				cur.Reset()
			}
		case r == ' ' && !inQuote:
			flush()
		default:
			cur.WriteRune(r)
		}
	}
	flush()
	return out
}

// RenderJunos renders the whole network in Junos syntax keyed by hostname.
func (n *Network) RenderJunos() map[string]string {
	out := make(map[string]string, len(n.Devices))
	for name, d := range n.Devices {
		out[name] = d.RenderJunos()
	}
	return out
}

// ParseJunosNetwork parses a set of Junos-style configurations.
func ParseJunosNetwork(texts map[string]string) (*Network, error) {
	n := NewNetwork()
	for label, text := range texts {
		d, err := ParseJunosDevice(text)
		if err != nil {
			return nil, fmt.Errorf("config: %s: %v", label, err)
		}
		if n.Device(d.Hostname) != nil {
			return nil, fmt.Errorf("config: duplicate hostname %q (from %s)", d.Hostname, label)
		}
		n.Add(d)
	}
	return n, nil
}

// DetectSyntax guesses whether a configuration text is Cisco-IOS-style or
// Junos-style by its leading statements.
func DetectSyntax(text string) string {
	for _, raw := range strings.Split(text, "\n") {
		line := strings.TrimSpace(raw)
		if line == "" || strings.HasPrefix(line, "#") || strings.HasPrefix(line, "!") {
			continue
		}
		if strings.HasPrefix(line, "set ") {
			return "junos"
		}
		return "ios"
	}
	return "ios"
}
