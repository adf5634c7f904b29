package main

import (
	"fmt"
	"strings"

	"confmask/internal/config"
	"confmask/internal/sim"
)

// checkOutput tests an anonymized configuration set against the paper's
// guarantees without reading the pipeline's Report: the router graph
// rebuilt from the output is k_R-degree anonymous, every original host
// gained k_H−1 twins, and every input line survives. It returns one
// message per failed check.
func checkOutput(orig, out map[string]string, kR, kH int) []string {
	var errs []string
	o, err := config.ParseNetwork(orig)
	if err != nil {
		return []string{fmt.Sprintf("parse original: %v", err)}
	}
	a, err := config.ParseNetwork(out)
	if err != nil {
		return []string{fmt.Sprintf("parse output: %v", err)}
	}

	n, err := sim.Build(a)
	if err != nil {
		return []string{fmt.Sprintf("build output topology: %v", err)}
	}
	if kd := n.Topology().MinSameDegreeCount(); kd < kR {
		errs = append(errs, fmt.Sprintf("k_R: k_d = %d, want ≥ %d", kd, kR))
	}

	hosts := o.Hosts()
	for _, h := range hosts {
		if a.Device(h) == nil {
			errs = append(errs, fmt.Sprintf("k_H: original host %s missing from output", h))
		}
	}
	if fake, want := len(a.Hosts())-len(hosts), (kH-1)*len(hosts); fake != want {
		errs = append(errs, fmt.Sprintf("k_H: %d fake hosts, want (k_H−1)·|H| = %d", fake, want))
	}

	byHost := map[string]string{}
	for _, text := range out {
		if d, err := config.ParseDevice(text); err == nil {
			byHost[d.Hostname] = text
		}
	}
	for label, text := range orig {
		d, err := config.ParseDevice(text)
		if err != nil {
			continue
		}
		kept := lineSet(byHost[d.Hostname])
		for _, line := range strings.Split(text, "\n") {
			if l := strings.TrimRight(line, " \r"); l != "" && l != "!" && !kept[l] {
				errs = append(errs, fmt.Sprintf("add-only: %s lost line %q", label, l))
				break
			}
		}
	}
	return errs
}

func lineSet(text string) map[string]bool {
	set := map[string]bool{}
	for _, line := range strings.Split(text, "\n") {
		set[strings.TrimRight(line, " \r")] = true
	}
	return set
}
