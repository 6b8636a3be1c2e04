package telemetry

import (
	"bufio"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// ContentType is the Content-Type of the Prometheus text exposition format
// this package writes.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// WritePrometheus writes every family in registration order in the
// Prometheus text exposition format (version 0.0.4): a # HELP and # TYPE
// line per family, then one sample line per series, with histogram series
// expanded into cumulative _bucket samples plus _sum and _count.
func (r *Registry) WritePrometheus(w io.Writer) error {
	bw := bufio.NewWriter(w)
	r.mu.RLock()
	fams := append([]*family(nil), r.order...)
	r.mu.RUnlock()
	for _, f := range fams {
		if f.help != "" {
			bw.WriteString("# HELP ")
			bw.WriteString(f.name)
			bw.WriteByte(' ')
			bw.WriteString(escapeHelp(f.help))
			bw.WriteByte('\n')
		}
		bw.WriteString("# TYPE ")
		bw.WriteString(f.name)
		bw.WriteByte(' ')
		bw.WriteString(f.kind.String())
		bw.WriteByte('\n')
		for _, s := range f.sortedSeries() {
			if f.kind == KindHistogram {
				writeHistogram(bw, f, s)
				continue
			}
			bw.WriteString(f.name)
			writeLabels(bw, f.labelNames, s.labelValues, "")
			bw.WriteByte(' ')
			bw.WriteString(formatValue(s.value()))
			bw.WriteByte('\n')
		}
	}
	return bw.Flush()
}

// writeHistogram expands one histogram series into cumulative buckets, sum,
// and count.
func writeHistogram(bw *bufio.Writer, f *family, s *series) {
	h := s.hist
	var cum uint64
	for i, upper := range h.upper {
		cum += h.counts[i].Load()
		bw.WriteString(f.name)
		bw.WriteString("_bucket")
		writeLabels(bw, f.labelNames, s.labelValues, formatValue(upper))
		bw.WriteByte(' ')
		bw.WriteString(strconv.FormatUint(cum, 10))
		bw.WriteByte('\n')
	}
	cum += h.counts[len(h.upper)].Load()
	bw.WriteString(f.name)
	bw.WriteString("_bucket")
	writeLabels(bw, f.labelNames, s.labelValues, "+Inf")
	bw.WriteByte(' ')
	bw.WriteString(strconv.FormatUint(cum, 10))
	bw.WriteByte('\n')

	bw.WriteString(f.name)
	bw.WriteString("_sum")
	writeLabels(bw, f.labelNames, s.labelValues, "")
	bw.WriteByte(' ')
	bw.WriteString(formatValue(h.Sum()))
	bw.WriteByte('\n')

	bw.WriteString(f.name)
	bw.WriteString("_count")
	writeLabels(bw, f.labelNames, s.labelValues, "")
	bw.WriteByte(' ')
	bw.WriteString(strconv.FormatUint(h.Count(), 10))
	bw.WriteByte('\n')
}

// writeLabels writes the {name="value",...} block, including the histogram
// le label when non-empty. A label whose value is empty is absent, as
// Prometheus reads it; nothing is written when no label is present.
func writeLabels(bw *bufio.Writer, names, values []string, le string) {
	sep := byte('{')
	for i, n := range names {
		if values[i] == "" {
			continue
		}
		bw.WriteByte(sep)
		sep = ','
		bw.WriteString(n)
		bw.WriteString(`="`)
		bw.WriteString(escapeLabel(values[i]))
		bw.WriteByte('"')
	}
	if le != "" {
		bw.WriteByte(sep)
		sep = ','
		bw.WriteString(`le="`)
		bw.WriteString(le)
		bw.WriteByte('"')
	}
	if sep == ',' {
		bw.WriteByte('}')
	}
}

// escapeLabel escapes a label value per the exposition format: backslash,
// double quote, and newline.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	b.Grow(len(v) + 2)
	for i := 0; i < len(v); i++ {
		switch v[i] {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteByte(v[i])
		}
	}
	return b.String()
}

// escapeHelp escapes a HELP line: backslash and newline only.
func escapeHelp(v string) string {
	if !strings.ContainsAny(v, "\\\n") {
		return v
	}
	var b strings.Builder
	b.Grow(len(v) + 2)
	for i := 0; i < len(v); i++ {
		switch v[i] {
		case '\\':
			b.WriteString(`\\`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteByte(v[i])
		}
	}
	return b.String()
}

// formatValue renders a sample value: integral values without an exponent
// or trailing zeros, everything else in shortest round-trip form.
func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Snapshot returns a JSON-friendly view of every family: scalar metrics as
// numbers (labeled series keyed "name=value,..."), histograms as
// {count, sum, p50, p90, p99} summaries. It is what /api/stats embeds. A
// family whose one series carries no label present is a plain value.
func (r *Registry) Snapshot() map[string]interface{} {
	r.mu.RLock()
	fams := append([]*family(nil), r.order...)
	r.mu.RUnlock()
	out := make(map[string]interface{}, len(fams))
	for _, f := range fams {
		series := f.sortedSeries()
		m := make(map[string]interface{}, len(series))
		for _, s := range series {
			var v interface{} = s.value()
			if f.kind == KindHistogram {
				v = histSummary(s.hist)
			}
			m[labelKey(f.labelNames, s.labelValues)] = v
		}
		if v, ok := m[""]; ok && len(m) == 1 {
			out[f.name] = v
		} else if len(f.labelNames) > 0 {
			out[f.name] = m
		}
	}
	return out
}

// histSummary summarizes one histogram for JSON.
func histSummary(h *Histogram) map[string]interface{} {
	s := map[string]interface{}{
		"count": h.Count(),
		"sum":   h.Sum(),
	}
	if h.Count() > 0 {
		s["p50"] = h.Quantile(0.50)
		s["p90"] = h.Quantile(0.90)
		s["p99"] = h.Quantile(0.99)
	}
	return s
}

// labelKey renders "name=value,name=value" for snapshot map keys, leaving
// out absent (empty) labels.
func labelKey(names, values []string) string {
	parts := make([]string, 0, len(names))
	for i := range names {
		if values[i] != "" {
			parts = append(parts, names[i]+"="+values[i])
		}
	}
	sort.Strings(parts)
	return strings.Join(parts, ",")
}
