package main

import (
	"math"
	"sort"
	"strconv"
	"strings"
)

// series is one scraped sample: a metric name, its labels and its value.
type series struct {
	name   string
	labels map[string]string
	value  float64
}

// scrape parses a Prometheus 0.0.4 text exposition — what the telemetry
// registry serves on /metrics — into samples keyed by their exposition
// line, so two scrapes of one registry line up sample for sample.
func scrape(text string) map[string]series {
	out := make(map[string]series)
	for _, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
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
		key := line[:sp]
		s := series{name: key, value: v}
		if br := strings.IndexByte(key, '{'); br >= 0 && strings.HasSuffix(key, "}") {
			s.name = key[:br]
			s.labels = parseLabels(key[br+1 : len(key)-1])
		}
		out[key] = s
	}
	return out
}

// parseLabels parses `a="x",b="y"` with the exposition format's escapes.
func parseLabels(s string) map[string]string {
	labels := make(map[string]string)
	for len(s) > 0 {
		eq := strings.IndexByte(s, '=')
		if eq < 0 || eq+1 >= len(s) || s[eq+1] != '"' {
			break
		}
		name := strings.TrimSpace(s[:eq])
		var val strings.Builder
		i := eq + 2
		for ; i < len(s) && s[i] != '"'; i++ {
			if s[i] == '\\' && i+1 < len(s) {
				i++
				if s[i] == 'n' {
					val.WriteByte('\n')
					continue
				}
			}
			val.WriteByte(s[i])
		}
		labels[name] = val.String()
		s = strings.TrimPrefix(s[min(i+1, len(s)):], ",")
	}
	return labels
}

// telemetryDelta is the change of every sample between two scrapes. A
// sample missing from the first scrape counts from zero. Gauges are
// differenced too; callers read counters and histograms from it.
type telemetryDelta map[string]series

func diffScrapes(before, after map[string]series) telemetryDelta {
	d := make(telemetryDelta, len(after))
	for k, s := range after {
		s.value -= before[k].value
		d[k] = s
	}
	return d
}

// sum adds the samples of one metric whose labels include every given
// name=value pair (pairs alternate name, value).
func (d telemetryDelta) sum(name string, pairs ...string) float64 {
	total := 0.0
	for _, s := range d {
		if s.name == name && hasLabels(s.labels, pairs) {
			total += s.value
		}
	}
	return total
}

func hasLabels(labels map[string]string, pairs []string) bool {
	for i := 0; i+1 < len(pairs); i += 2 {
		if labels[pairs[i]] != pairs[i+1] {
			return false
		}
	}
	return true
}

// quantile estimates the q-quantile of a histogram's observations from
// its bucket deltas, interpolating linearly inside the bucket (the
// Prometheus histogram_quantile rule). It returns NaN without
// observations.
func (d telemetryDelta) quantile(name string, q float64) float64 {
	type bucket struct{ le, count float64 }
	var bs []bucket
	for _, s := range d {
		if s.name != name+"_bucket" {
			continue
		}
		le, err := strconv.ParseFloat(s.labels["le"], 64)
		if s.labels["le"] == "+Inf" {
			le, err = math.Inf(1), nil
		}
		if err == nil {
			bs = append(bs, bucket{le, s.value})
		}
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
	if len(bs) == 0 || bs[len(bs)-1].count <= 0 {
		return math.NaN()
	}
	rank := q * bs[len(bs)-1].count
	lo, prev := 0.0, 0.0
	for _, b := range bs {
		if b.count >= rank {
			if math.IsInf(b.le, 1) {
				return lo // the highest finite bound
			}
			if b.count == prev {
				return b.le
			}
			return lo + (b.le-lo)*(rank-prev)/(b.count-prev)
		}
		lo, prev = b.le, b.count
	}
	return lo
}
