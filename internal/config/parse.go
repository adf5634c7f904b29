package config

import (
	"fmt"
	"net/netip"
	"strconv"
	"strings"
)

// ParseDevice parses Cisco-IOS-style configuration text into a Device. It
// accepts everything Render produces (the two round-trip), plus small
// variations: CIDR interface addresses and `network <cidr> area 0` OSPF
// statements. Lines it does not understand are preserved verbatim in the
// appropriate Extra slice so no information is lost.
func ParseDevice(text string) (*Device, error) {
	d := &Device{Kind: RouterKind}
	lines := strings.Split(text, "\n")

	type blockKind int
	const (
		blkNone blockKind = iota
		blkIface
		blkOSPF
		blkRIP
		blkBGP
	)
	const blkEIGRP = blkBGP + 1
	cur := blkNone
	var curIface *Interface

	for ln, raw := range lines {
		line := strings.TrimRight(raw, " \t\r")
		if line == "" {
			continue
		}
		trimmed := strings.TrimSpace(line)
		if trimmed == "!" {
			cur = blkNone
			curIface = nil
			continue
		}
		if strings.HasPrefix(trimmed, "!") {
			if strings.TrimSpace(strings.TrimPrefix(trimmed, "!")) == "device: host" {
				d.Kind = HostKind
			}
			continue
		}
		indented := strings.HasPrefix(line, " ") || strings.HasPrefix(line, "\t")
		f := strings.Fields(trimmed)
		if len(f) == 0 {
			// Unicode whitespace (\v, \f, …) survives the line trim above
			// but yields no fields.
			continue
		}

		if !indented {
			cur = blkNone
			curIface = nil
			switch {
			case f[0] == "hostname" && len(f) >= 2:
				d.Hostname = f[1]
			case f[0] == "interface" && len(f) >= 2:
				curIface = &Interface{Name: f[1]}
				d.Interfaces = append(d.Interfaces, curIface)
				cur = blkIface
			case f[0] == "router" && len(f) >= 2 && f[1] == "ospf":
				pid := 1
				if len(f) >= 3 {
					pid, _ = strconv.Atoi(f[2])
				}
				d.OSPF = &OSPF{ProcessID: pid, IGPProcess: IGPProcess{InFilters: map[string]string{}}}
				cur = blkOSPF
			case f[0] == "router" && len(f) >= 2 && f[1] == "rip":
				d.RIP = &RIP{IGPProcess: IGPProcess{InFilters: map[string]string{}}}
				cur = blkRIP
			case f[0] == "router" && len(f) >= 3 && f[1] == "eigrp":
				asn, err := strconv.Atoi(f[2])
				if err != nil {
					return nil, fmt.Errorf("config: line %d: bad EIGRP AS %q", ln+1, f[2])
				}
				d.EIGRP = &EIGRP{ASN: asn, IGPProcess: IGPProcess{InFilters: map[string]string{}}}
				cur = blkEIGRP
			case f[0] == "router" && len(f) >= 3 && f[1] == "bgp":
				asn, err := strconv.Atoi(f[2])
				if err != nil {
					return nil, fmt.Errorf("config: line %d: bad BGP ASN %q", ln+1, f[2])
				}
				d.BGP = &BGP{ASN: asn}
				cur = blkBGP
			case f[0] == "ip" && len(f) >= 2 && f[1] == "prefix-list":
				if err := d.parsePrefixListLine(f); err != nil {
					return nil, fmt.Errorf("config: line %d: %v", ln+1, err)
				}
			case f[0] == "ip" && len(f) >= 5 && f[1] == "route":
				bits, ok := maskBits(f[3])
				addr, err1 := netip.ParseAddr(f[2])
				if !ok || err1 != nil {
					return nil, fmt.Errorf("config: line %d: bad static route %q", ln+1, trimmed)
				}
				if f[4] == "Null0" {
					d.Statics = append(d.Statics, StaticRoute{
						Prefix:  netip.PrefixFrom(addr, bits).Masked(),
						Discard: true,
					})
					continue
				}
				nh, err2 := netip.ParseAddr(f[4])
				if err2 != nil {
					return nil, fmt.Errorf("config: line %d: bad static route %q", ln+1, trimmed)
				}
				d.Statics = append(d.Statics, StaticRoute{
					Prefix:  netip.PrefixFrom(addr, bits).Masked(),
					NextHop: nh,
				})
			default:
				d.Extra = append(d.Extra, trimmed)
			}
			continue
		}

		// Indented: belongs to the current block.
		switch cur {
		case blkIface:
			d.parseIfaceLine(curIface, f, trimmed)
		case blkOSPF:
			if err := parseIGPLine(f, trimmed, &d.OSPF.Networks, d.OSPF.InFilters, true); err != nil {
				return nil, fmt.Errorf("config: line %d: %v", ln+1, err)
			}
		case blkRIP:
			if trimmed == "version 2" {
				continue
			}
			if err := parseIGPLine(f, trimmed, &d.RIP.Networks, d.RIP.InFilters, false); err != nil {
				return nil, fmt.Errorf("config: line %d: %v", ln+1, err)
			}
		case blkEIGRP:
			if err := parseIGPLine(f, trimmed, &d.EIGRP.Networks, d.EIGRP.InFilters, false); err != nil {
				return nil, fmt.Errorf("config: line %d: %v", ln+1, err)
			}
		case blkBGP:
			if err := d.parseBGPLine(f, trimmed); err != nil {
				return nil, fmt.Errorf("config: line %d: %v", ln+1, err)
			}
		default:
			d.Extra = append(d.Extra, trimmed)
		}
	}
	if d.Hostname == "" {
		return nil, fmt.Errorf("config: missing hostname")
	}
	return d, nil
}

func (d *Device) parseIfaceLine(i *Interface, f []string, trimmed string) {
	switch {
	case f[0] == "description":
		i.Description = strings.TrimSpace(strings.TrimPrefix(trimmed, "description"))
	case f[0] == "ip" && len(f) >= 3 && f[1] == "address":
		if strings.Contains(f[2], "/") {
			if p, err := netip.ParsePrefix(f[2]); err == nil {
				i.Addr = p
				return
			}
		} else if len(f) >= 4 {
			addr, err := netip.ParseAddr(f[2])
			bits, ok := maskBits(f[3])
			if err == nil && ok {
				i.Addr = netip.PrefixFrom(addr, bits)
				return
			}
		}
		i.Extra = append(i.Extra, trimmed)
	case f[0] == "ip" && len(f) >= 4 && f[1] == "ospf" && f[2] == "cost":
		if c, err := strconv.Atoi(f[3]); err == nil {
			i.OSPFCost = c
			return
		}
		i.Extra = append(i.Extra, trimmed)
	case f[0] == "delay" && len(f) >= 2:
		if v, err := strconv.Atoi(f[1]); err == nil {
			i.Delay = v
			return
		}
		i.Extra = append(i.Extra, trimmed)
	default:
		i.Extra = append(i.Extra, trimmed)
	}
}

// parseIGPLine handles `network ...` and `distribute-list ...` inside OSPF
// and RIP stanzas. withArea selects the OSPF wildcard-mask network syntax.
func parseIGPLine(f []string, trimmed string, networks *[]netip.Prefix, filters map[string]string, withArea bool) error {
	switch {
	case f[0] == "network":
		if len(f) >= 2 && strings.Contains(f[1], "/") {
			p, err := netip.ParsePrefix(f[1])
			if err != nil {
				return fmt.Errorf("bad network %q", trimmed)
			}
			*networks = append(*networks, p.Masked())
			return nil
		}
		if withArea && len(f) >= 3 {
			addr, err := netip.ParseAddr(f[1])
			bits, ok := wildcardBitsOf(f[2])
			if err != nil || !ok {
				return fmt.Errorf("bad network %q", trimmed)
			}
			*networks = append(*networks, netip.PrefixFrom(addr, bits).Masked())
			return nil
		}
		return fmt.Errorf("bad network %q", trimmed)
	case f[0] == "distribute-list" && len(f) >= 5 && f[1] == "prefix" && f[3] == "in":
		filters[f[4]] = f[2]
		return nil
	default:
		return fmt.Errorf("unrecognized protocol line %q", trimmed)
	}
}

func (d *Device) parseBGPLine(f []string, trimmed string) error {
	switch {
	case f[0] == "bgp" && len(f) >= 3 && f[1] == "router-id":
		id, err := netip.ParseAddr(f[2])
		if err != nil {
			return fmt.Errorf("bad router-id %q", trimmed)
		}
		d.BGP.RouterID = id
	case f[0] == "network" && len(f) >= 4 && f[2] == "mask":
		addr, err := netip.ParseAddr(f[1])
		bits, ok := maskBits(f[3])
		if err != nil || !ok {
			return fmt.Errorf("bad BGP network %q", trimmed)
		}
		d.BGP.Networks = append(d.BGP.Networks, netip.PrefixFrom(addr, bits).Masked())
	case f[0] == "network" && len(f) >= 2 && strings.Contains(f[1], "/"):
		p, err := netip.ParsePrefix(f[1])
		if err != nil {
			return fmt.Errorf("bad BGP network %q", trimmed)
		}
		d.BGP.Networks = append(d.BGP.Networks, p.Masked())
	case f[0] == "neighbor" && len(f) >= 4 && f[2] == "remote-as":
		addr, err := netip.ParseAddr(f[1])
		asn, err2 := strconv.Atoi(f[3])
		if err != nil || err2 != nil {
			return fmt.Errorf("bad neighbor %q", trimmed)
		}
		d.BGP.Neighbors = append(d.BGP.Neighbors, &BGPNeighbor{Addr: addr, RemoteAS: asn})
	case f[0] == "neighbor" && len(f) >= 5 && f[2] == "distribute-list" && f[4] == "in":
		addr, err := netip.ParseAddr(f[1])
		if err != nil {
			return fmt.Errorf("bad neighbor %q", trimmed)
		}
		nb := d.BGP.neighbor(addr)
		if nb == nil {
			return fmt.Errorf("distribute-list for unknown neighbor %s", addr)
		}
		nb.DistributeListIn = f[3]
	default:
		return fmt.Errorf("unrecognized BGP line %q", trimmed)
	}
	return nil
}

func (b *BGP) neighbor(addr netip.Addr) *BGPNeighbor {
	for _, nb := range b.Neighbors {
		if nb.Addr == addr {
			return nb
		}
	}
	return nil
}

// parsePrefixListLine handles `ip prefix-list NAME seq N deny|permit P [le N]`.
func (d *Device) parsePrefixListLine(f []string) error {
	if len(f) < 7 || f[3] != "seq" {
		return fmt.Errorf("bad prefix-list line")
	}
	name := f[2]
	seq, err := strconv.Atoi(f[4])
	if err != nil {
		return fmt.Errorf("bad prefix-list seq %q", f[4])
	}
	var deny bool
	switch f[5] {
	case "deny":
		deny = true
	case "permit":
		deny = false
	default:
		return fmt.Errorf("bad prefix-list action %q", f[5])
	}
	p, err := netip.ParsePrefix(f[6])
	if err != nil {
		return fmt.Errorf("bad prefix-list prefix %q", f[6])
	}
	le := 0
	if len(f) >= 9 && f[7] == "le" {
		le, err = strconv.Atoi(f[8])
		if err != nil {
			return fmt.Errorf("bad prefix-list le %q", f[8])
		}
	}
	pl := d.EnsurePrefixList(name)
	pl.Rules = append(pl.Rules, PrefixRule{Seq: seq, Deny: deny, Prefix: p.Masked(), Le: le})
	return nil
}

// ParseNetwork parses a set of configurations keyed by an arbitrary label
// (e.g. file name); devices are re-keyed by their hostname lines.
func ParseNetwork(texts map[string]string) (*Network, error) {
	n := NewNetwork()
	for label, text := range texts {
		d, err := ParseDevice(text)
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
