package telemetry

import (
	"strings"
	"testing"
)

// TestExposition is the table-driven contract test of the Prometheus text
// format: metric naming, HELP/TYPE lines, label rendering and escaping,
// histogram bucket cumulativity.
func TestExposition(t *testing.T) {
	tests := []struct {
		name  string
		setup func(r *Registry)
		want  []string // exact lines expected, in order, among the output
	}{
		{
			name: "counter with help and type",
			setup: func(r *Registry) {
				r.Counter("nnexus_ops_total", "Total operations.").Add(3)
			},
			want: []string{
				"# HELP nnexus_ops_total Total operations.",
				"# TYPE nnexus_ops_total counter",
				"nnexus_ops_total 3",
			},
		},
		{
			name: "counter without help omits the HELP line",
			setup: func(r *Registry) {
				r.Counter("bare_total", "").Inc()
			},
			want: []string{
				"# TYPE bare_total counter",
				"bare_total 1",
			},
		},
		{
			name: "gauge type line",
			setup: func(r *Registry) {
				r.Gauge("queue_depth", "Depth.").Set(12)
			},
			want: []string{
				"# TYPE queue_depth gauge",
				"queue_depth 12",
			},
		},
		{
			name: "labeled series sorted by label value",
			setup: func(r *Registry) {
				v := r.CounterVec("http_requests_total", "Requests.", "endpoint", "code")
				v.With("/b", "200").Add(2)
				v.With("/a", "500").Add(1)
			},
			want: []string{
				`http_requests_total{endpoint="/a",code="500"} 1`,
				`http_requests_total{endpoint="/b",code="200"} 2`,
			},
		},
		{
			name: "label value escaping",
			setup: func(r *Registry) {
				r.CounterVec("weird_total", "", "path").
					With("a\"b\\c\nd").Inc()
			},
			want: []string{
				`weird_total{path="a\"b\\c\nd"} 1`,
			},
		},
		{
			name: "an empty label value is an absent label",
			setup: func(r *Registry) {
				r.CounterVec("ops_total", "", "op", "shard").With("add", "").Inc()
				r.CounterVec("links_total", "", "shard").Func(func() float64 { return 4 }, "")
				r.HistogramVec("lat_seconds", "", []float64{1}, "shard").With("").Observe(0.5)
			},
			want: []string{
				`ops_total{op="add"} 1`,
				`links_total 4`,
				`lat_seconds_bucket{le="1"} 1`,
				`lat_seconds_sum 0.5`,
			},
		},
		{
			name: "help escaping",
			setup: func(r *Registry) {
				r.Counter("esc_total", "line1\nline2\\end").Inc()
			},
			want: []string{
				`# HELP esc_total line1\nline2\\end`,
			},
		},
		{
			name: "histogram buckets are cumulative and end at +Inf",
			setup: func(r *Registry) {
				h := r.Histogram("lat_seconds", "Latency.", 0.1, 0.5, 1)
				h.Observe(0.05) // ≤ 0.1
				h.Observe(0.05)
				h.Observe(0.3) // ≤ 0.5
				h.Observe(2)   // +Inf
			},
			want: []string{
				"# TYPE lat_seconds histogram",
				`lat_seconds_bucket{le="0.1"} 2`,
				`lat_seconds_bucket{le="0.5"} 3`,
				`lat_seconds_bucket{le="1"} 3`,
				`lat_seconds_bucket{le="+Inf"} 4`,
				"lat_seconds_sum 2.4",
				"lat_seconds_count 4",
			},
		},
		{
			name: "labeled histogram carries labels plus le",
			setup: func(r *Registry) {
				v := r.HistogramVec("stage_seconds", "", []float64{1}, "stage")
				v.With("render").Observe(0.5)
			},
			want: []string{
				`stage_seconds_bucket{stage="render",le="1"} 1`,
				`stage_seconds_bucket{stage="render",le="+Inf"} 1`,
				`stage_seconds_sum{stage="render"} 0.5`,
				`stage_seconds_count{stage="render"} 1`,
			},
		},
		{
			name: "non-integral values in shortest form",
			setup: func(r *Registry) {
				r.GaugeFunc("ratio", "", func() float64 { return 0.25 })
			},
			want: []string{
				"ratio 0.25",
			},
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			r := NewRegistry()
			tt.setup(r)
			var sb strings.Builder
			if err := r.WritePrometheus(&sb); err != nil {
				t.Fatal(err)
			}
			got := sb.String()
			lines := strings.Split(strings.TrimRight(got, "\n"), "\n")
			// Each wanted line must appear, and in the given relative order.
			pos := 0
			for _, want := range tt.want {
				found := -1
				for i := pos; i < len(lines); i++ {
					if lines[i] == want {
						found = i
						break
					}
				}
				if found < 0 {
					t.Fatalf("line %q missing or out of order in output:\n%s", want, got)
				}
				pos = found + 1
			}
		})
	}
}

// TestExpositionFamilyOrder checks families appear in registration order.
func TestExpositionFamilyOrder(t *testing.T) {
	r := NewRegistry()
	r.Counter("zzz_total", "").Inc()
	r.Counter("aaa_total", "").Inc()
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if strings.Index(out, "zzz_total") > strings.Index(out, "aaa_total") {
		t.Fatalf("families not in registration order:\n%s", out)
	}
}

// TestExpositionParsesAsPrometheus runs a minimal line-shape validation
// over a fully loaded registry: every non-comment line must be
// `name{labels} value` with a parseable value.
func TestExpositionParsesAsPrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total", "help").Add(5)
	r.Gauge("b", "").Set(-2)
	r.CounterVec("c_total", "", "x", "y").With("1", "2").Inc()
	h := r.Histogram("d_seconds", "lat")
	h.Observe(1e-5)
	h.Observe(0.3)
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimRight(sb.String(), "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp <= 0 {
			t.Fatalf("malformed sample line %q", line)
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			if !strings.HasSuffix(name, "}") {
				t.Fatalf("unbalanced label block in %q", line)
			}
		}
		val := line[sp+1:]
		if val == "" {
			t.Fatalf("empty value in %q", line)
		}
	}
}
