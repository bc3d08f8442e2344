package main

import (
	"bytes"
	"strconv"
	"strings"

	"littleslaw/internal/metrics"
)

// series is one line of a registry's Prometheus text exposition. Reading
// the servers' counters through the same page an operator scrapes keeps
// the harness outside the packages it measures.
type series struct {
	name   string
	labels map[string]string
	value  float64
}

// scrape renders reg and parses it back.
func scrape(reg *metrics.Registry) ([]series, error) {
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		return nil, err
	}
	var out []series
	for _, line := range strings.Split(buf.String(), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		s := series{name: line[:sp], value: v}
		if open := strings.IndexByte(s.name, '{'); open >= 0 {
			s.labels = map[string]string{}
			for _, kv := range strings.Split(strings.TrimSuffix(s.name[open+1:], "}"), ",") {
				if k, val, ok := strings.Cut(kv, "="); ok {
					s.labels[k] = strings.Trim(val, `"`)
				}
			}
			s.name = s.name[:open]
		}
		out = append(out, s)
	}
	return out, nil
}

// sum adds the values of every series of name whose labels include want.
func sum(all []series, name string, want map[string]string) float64 {
	total := 0.0
next:
	for _, s := range all {
		if s.name != name {
			continue
		}
		for k, v := range want {
			if s.labels[k] != v {
				continue next
			}
		}
		total += s.value
	}
	return total
}
