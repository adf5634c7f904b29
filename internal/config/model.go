// Package config models Cisco-IOS-style router and host configurations:
// an in-memory structured form, a text renderer, a parser that round-trips
// the rendered form, and line accounting used by the paper's configuration
// utility metric U_C = 1 − N_l/P_l.
//
// The model covers the subset of IOS that ConfMask manipulates — interfaces
// with addresses and OSPF costs, OSPF/RIP/BGP processes, prefix lists, and
// distribute-list filter attachments — and preserves any other lines
// verbatim so that unrelated configuration (QoS policies, banners, ...)
// survives anonymization untouched, as the paper requires.
package config

import (
	"fmt"
	"net/netip"
	"sort"
	"strings"
)

// DeviceKind distinguishes routers from end hosts.
type DeviceKind int

const (
	// RouterKind is an L3 forwarding device running routing protocols.
	RouterKind DeviceKind = iota
	// HostKind is an end host with a single address and a default route.
	HostKind
)

func (k DeviceKind) String() string {
	if k == HostKind {
		return "host"
	}
	return "router"
}

// Device is one device's configuration.
type Device struct {
	Hostname   string
	Kind       DeviceKind
	Interfaces []*Interface
	OSPF       *OSPF
	RIP        *RIP
	EIGRP      *EIGRP
	BGP        *BGP
	// PrefixLists holds named prefix lists in insertion order.
	PrefixLists []*PrefixList
	// Statics holds static routes (hosts use one default route).
	Statics []StaticRoute
	// Extra preserves unrecognized top-level lines verbatim.
	Extra []string
}

// Interface is a layer-3 interface.
type Interface struct {
	Name        string
	Addr        netip.Prefix // interface address with prefix length
	Description string
	// OSPFCost is the `ip ospf cost` value; 0 means unset (DefaultOSPFCost).
	OSPFCost int
	// Delay is the `delay` value in tens of microseconds; 0 means unset
	// (DefaultDelay). EIGRP's simplified metric sums it along the path.
	Delay int
	// Extra preserves unrecognized lines inside the interface stanza.
	Extra []string
	// Injected marks interfaces added by anonymization. It is
	// bookkeeping only and never rendered, so an adversary reading the
	// output cannot see it; tests use it to audit the pipeline.
	Injected bool
}

// DefaultOSPFCost is the link cost used when an interface has no explicit
// `ip ospf cost` line (the paper's running example uses 10).
const DefaultOSPFCost = 10

// Cost returns the effective OSPF cost of the interface.
func (i *Interface) Cost() int {
	if i.OSPFCost > 0 {
		return i.OSPFCost
	}
	return DefaultOSPFCost
}

// IGP names an interior gateway protocol: one whose process enables
// interfaces by network statement and filters learned routes with
// per-interface inbound distribute-lists.
type IGP uint8

const (
	IGPOSPF IGP = iota
	IGPRIP
	IGPEIGRP
)

// IGPs lists every IGP, in the order per-device scans walk them.
var IGPs = [...]IGP{IGPOSPF, IGPRIP, IGPEIGRP}

func (k IGP) String() string {
	switch k {
	case IGPOSPF:
		return "OSPF"
	case IGPRIP:
		return "RIP"
	case IGPEIGRP:
		return "EIGRP"
	}
	return fmt.Sprintf("IGP(%d)", uint8(k))
}

// IGPProcess is what every IGP process shares: the network statements
// that enable its interfaces and its inbound distribute-lists.
type IGPProcess struct {
	Networks []netip.Prefix
	// InFilters maps an interface name to the prefix-list applied with
	// `distribute-list prefix <name> in <interface>`. ConfMask's route
	// filters attach here.
	InFilters map[string]string
}

// Process returns the device's process for protocol k, or nil when the
// device runs none. The result aliases the device's own process.
func (d *Device) Process(k IGP) *IGPProcess {
	switch k {
	case IGPOSPF:
		if d.OSPF != nil {
			return &d.OSPF.IGPProcess
		}
	case IGPRIP:
		if d.RIP != nil {
			return &d.RIP.IGPProcess
		}
	case IGPEIGRP:
		if d.EIGRP != nil {
			return &d.EIGRP.IGPProcess
		}
	}
	return nil
}

// Enables reports whether the process runs on the interface: a network
// statement must cover the interface address (Cisco network+wildcard
// matching).
func (p *IGPProcess) Enables(i *Interface) bool {
	if !i.Addr.IsValid() {
		return false
	}
	for _, nw := range p.Networks {
		if nw.Contains(i.Addr.Addr()) {
			return true
		}
	}
	return false
}

// EnsureInFilters returns the distribute-list map, allocating it first if
// the process has none.
func (p *IGPProcess) EnsureInFilters() map[string]string {
	if p.InFilters == nil {
		p.InFilters = make(map[string]string)
	}
	return p.InFilters
}

func (p IGPProcess) clone() IGPProcess {
	return IGPProcess{
		Networks:  append([]netip.Prefix(nil), p.Networks...),
		InFilters: cloneStringMap(p.InFilters),
	}
}

// OSPF is a `router ospf` process. Only area 0 is modelled.
type OSPF struct {
	ProcessID int
	IGPProcess
}

// RIP is a `router rip` process (version 2).
type RIP struct {
	IGPProcess
}

// EIGRP is a `router eigrp` process. The simulator uses a simplified
// additive delay metric (the dominant term of EIGRP's composite metric on
// uniform-bandwidth links).
type EIGRP struct {
	ASN int
	IGPProcess
}

// DefaultDelay is the interface delay used when no `delay` line is
// present (10 = 100 µs, the Ethernet default).
const DefaultDelay = 10

// DelayValue returns the effective interface delay.
func (i *Interface) DelayValue() int {
	if i.Delay > 0 {
		return i.Delay
	}
	return DefaultDelay
}

// BGP is a `router bgp` process.
type BGP struct {
	ASN       int
	RouterID  netip.Addr
	Networks  []netip.Prefix
	Neighbors []*BGPNeighbor
}

// BGPNeighbor is one `neighbor` of a BGP process.
type BGPNeighbor struct {
	Addr     netip.Addr
	RemoteAS int
	// DistributeListIn names the prefix-list applied inbound with
	// `neighbor <addr> distribute-list <name> in`.
	DistributeListIn string
}

// PrefixList is a named ordered prefix list. A prefix matches the list when
// it equals a rule's prefix; processing stops at the first match, and a
// list with no match permits (our lists end with an explicit permit-any).
type PrefixList struct {
	Name  string
	Rules []PrefixRule
}

// PrefixRule is one `ip prefix-list` entry.
type PrefixRule struct {
	Seq    int
	Deny   bool
	Prefix netip.Prefix
	// Le, when nonzero, renders as `le <n>` and widens the match to any
	// more-specific prefix up to length n (used for permit-any tails).
	Le int
}

// StaticRoute is an `ip route` statement. Discard routes
// (`ip route <net> <mask> Null0`) anchor locally originated prefixes the
// way operators announce aggregates and external equivalence classes into
// BGP: the network statement requires a matching RIB entry, and Null0
// provides one.
type StaticRoute struct {
	Prefix  netip.Prefix
	NextHop netip.Addr
	Discard bool // true for Null0 routes; NextHop is then unset
}

// Network is a set of device configurations keyed by hostname.
type Network struct {
	Devices map[string]*Device
}

// NewNetwork returns an empty network.
func NewNetwork() *Network {
	return &Network{Devices: make(map[string]*Device)}
}

// Add inserts a device, replacing any existing device of the same hostname.
func (n *Network) Add(d *Device) { n.Devices[d.Hostname] = d }

// Device returns the device with the given hostname, or nil.
func (n *Network) Device(name string) *Device { return n.Devices[name] }

// Names returns all hostnames in sorted order.
func (n *Network) Names() []string {
	out := make([]string, 0, len(n.Devices))
	for name := range n.Devices {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Routers returns the hostnames of all router devices in sorted order.
func (n *Network) Routers() []string { return n.ofKind(RouterKind) }

// Hosts returns the hostnames of all host devices in sorted order.
func (n *Network) Hosts() []string { return n.ofKind(HostKind) }

func (n *Network) ofKind(k DeviceKind) []string {
	var out []string
	for name, d := range n.Devices {
		if d.Kind == k {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// Clone returns a deep copy of the network.
func (n *Network) Clone() *Network {
	c := NewNetwork()
	for _, d := range n.Devices {
		c.Add(d.Clone())
	}
	return c
}

// Clone returns a deep copy of the device.
func (d *Device) Clone() *Device {
	c := &Device{
		Hostname: d.Hostname,
		Kind:     d.Kind,
		Extra:    append([]string(nil), d.Extra...),
		Statics:  append([]StaticRoute(nil), d.Statics...),
	}
	for _, i := range d.Interfaces {
		ci := *i
		ci.Extra = append([]string(nil), i.Extra...)
		c.Interfaces = append(c.Interfaces, &ci)
	}
	if d.OSPF != nil {
		c.OSPF = &OSPF{ProcessID: d.OSPF.ProcessID, IGPProcess: d.OSPF.clone()}
	}
	if d.RIP != nil {
		c.RIP = &RIP{IGPProcess: d.RIP.clone()}
	}
	if d.EIGRP != nil {
		c.EIGRP = &EIGRP{ASN: d.EIGRP.ASN, IGPProcess: d.EIGRP.clone()}
	}
	if d.BGP != nil {
		cb := &BGP{
			ASN:      d.BGP.ASN,
			RouterID: d.BGP.RouterID,
			Networks: append([]netip.Prefix(nil), d.BGP.Networks...),
		}
		for _, nb := range d.BGP.Neighbors {
			cn := *nb
			cb.Neighbors = append(cb.Neighbors, &cn)
		}
		c.BGP = cb
	}
	for _, pl := range d.PrefixLists {
		cp := &PrefixList{Name: pl.Name, Rules: append([]PrefixRule(nil), pl.Rules...)}
		c.PrefixLists = append(c.PrefixLists, cp)
	}
	return c
}

func cloneStringMap(m map[string]string) map[string]string {
	if m == nil {
		return nil
	}
	c := make(map[string]string, len(m))
	for k, v := range m {
		c[k] = v
	}
	return c
}

// Interface returns the interface with the given name, or nil.
func (d *Device) Interface(name string) *Interface {
	for _, i := range d.Interfaces {
		if i.Name == name {
			return i
		}
	}
	return nil
}

// InterfaceByAddr returns the interface whose address equals addr, or nil.
func (d *Device) InterfaceByAddr(addr netip.Addr) *Interface {
	for _, i := range d.Interfaces {
		if i.Addr.IsValid() && i.Addr.Addr() == addr {
			return i
		}
	}
	return nil
}

// PrefixList returns the named prefix list, or nil.
func (d *Device) PrefixList(name string) *PrefixList {
	for _, pl := range d.PrefixLists {
		if pl.Name == name {
			return pl
		}
	}
	return nil
}

// EnsurePrefixList returns the named prefix list, creating it (with a
// trailing permit-any so that undeclared prefixes stay permitted) if it
// does not exist yet.
func (d *Device) EnsurePrefixList(name string) *PrefixList {
	if pl := d.PrefixList(name); pl != nil {
		return pl
	}
	pl := &PrefixList{Name: name}
	d.PrefixLists = append(d.PrefixLists, pl)
	return pl
}

// Deny appends a deny rule for pfx (idempotent).
func (pl *PrefixList) Deny(pfx netip.Prefix) {
	for _, r := range pl.Rules {
		if r.Deny && r.Prefix == pfx {
			return
		}
	}
	seq := 5
	if n := len(pl.Rules); n > 0 {
		seq = pl.Rules[n-1].Seq + 5
	}
	pl.Rules = append(pl.Rules, PrefixRule{Seq: seq, Deny: true, Prefix: pfx})
}

// Denies reports whether the list denies exactly pfx.
func (pl *PrefixList) Denies(pfx netip.Prefix) bool {
	for _, r := range pl.Rules {
		if r.Prefix == pfx || (r.Le >= pfx.Bits() && r.Prefix.Overlaps(pfx) && r.Prefix.Bits() <= pfx.Bits()) {
			return r.Deny
		}
	}
	return false // implicit permit for our generated lists
}

// RemoveDeny deletes the deny rule for pfx if present and reports whether a
// rule was removed.
func (pl *PrefixList) RemoveDeny(pfx netip.Prefix) bool {
	for i, r := range pl.Rules {
		if r.Deny && r.Prefix == pfx {
			pl.Rules = append(pl.Rules[:i], pl.Rules[i+1:]...)
			return true
		}
	}
	return false
}

// UsedPrefixes returns every prefix that appears anywhere in the network's
// configurations (interface subnets, protocol networks, statics, prefix
// lists), masked to subnet form. Fake prefixes must avoid all of these.
func (n *Network) UsedPrefixes() []netip.Prefix {
	seen := make(map[netip.Prefix]bool)
	add := func(p netip.Prefix) {
		// A default route (/0) is not an allocated subnet and would
		// blanket the whole address space.
		if p.IsValid() && p.Bits() > 0 {
			seen[p.Masked()] = true
		}
	}
	for _, d := range n.Devices {
		for _, i := range d.Interfaces {
			add(i.Addr)
		}
		for _, k := range IGPs {
			if proc := d.Process(k); proc != nil {
				for _, p := range proc.Networks {
					add(p)
				}
			}
		}
		if d.BGP != nil {
			for _, p := range d.BGP.Networks {
				add(p)
			}
		}
		for _, s := range d.Statics {
			add(s.Prefix)
		}
		for _, pl := range d.PrefixLists {
			for _, r := range pl.Rules {
				add(r.Prefix)
			}
		}
	}
	out := make([]netip.Prefix, 0, len(seen))
	for p := range seen {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool {
		if c := out[i].Addr().Compare(out[j].Addr()); c != 0 {
			return c < 0
		}
		return out[i].Bits() < out[j].Bits()
	})
	return out
}

// NextInterfaceName returns a fresh interface name on the device following
// the GigabitEthernet<unit>/0/<port> convention used by our renderer.
func (d *Device) NextInterfaceName() string {
	for port := 0; ; port++ {
		name := fmt.Sprintf("GigabitEthernet1/0/%d", port)
		if d.Interface(name) == nil {
			return name
		}
	}
}

// String implements fmt.Stringer with a short summary, not the rendered
// configuration; use Render for the config text.
func (d *Device) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s(%s, %d ifaces", d.Hostname, d.Kind, len(d.Interfaces))
	if d.OSPF != nil {
		b.WriteString(", ospf")
	}
	if d.RIP != nil {
		b.WriteString(", rip")
	}
	if d.EIGRP != nil {
		fmt.Fprintf(&b, ", eigrp:%d", d.EIGRP.ASN)
	}
	if d.BGP != nil {
		fmt.Fprintf(&b, ", bgp:%d", d.BGP.ASN)
	}
	b.WriteString(")")
	return b.String()
}
