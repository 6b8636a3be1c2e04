// Package benchfmt is the committed benchmark-snapshot format of the
// experiment drivers in cmd/nnexus-bench (read-scaling, open-loop sweep,
// shard-scaling and tenant-isolation results). Keeping one schema means
// every BENCH_PR*.json file can be loaded, merged, and gated with the same
// code.
package benchfmt

import (
	"encoding/json"
	"os"
	"sort"
)

// Benchmark is one recorded result: a `go test -bench` line or a synthetic
// experiment row.
type Benchmark struct {
	// Name is the benchmark name without the -P GOMAXPROCS suffix.
	Name string `json:"name"`
	// Procs is the GOMAXPROCS the benchmark ran at (the -P suffix; 1 when
	// absent).
	Procs int `json:"procs"`
	// Iterations is b.N (or the operation count of an experiment row).
	Iterations int64 `json:"iterations"`
	// NsPerOp, BytesPerOp, AllocsPerOp mirror the standard columns; the
	// latter two are -1 when -benchmem was off or the row is synthetic.
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	// Metrics holds custom b.ReportMetric values (precision, links/op,
	// offered_qps, …).
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// File is the committed JSON document.
type File struct {
	Benchmarks []Benchmark `json:"benchmarks"`
}

// Find returns the benchmark with the given name and proc count.
func (f File) Find(name string, procs int) (Benchmark, bool) {
	for _, b := range f.Benchmarks {
		if b.Name == name && b.Procs == procs {
			return b, true
		}
	}
	return Benchmark{}, false
}

// Sort orders benchmarks by (name, procs), the committed order.
func (f *File) Sort() {
	sort.Slice(f.Benchmarks, func(i, j int) bool {
		if f.Benchmarks[i].Name != f.Benchmarks[j].Name {
			return f.Benchmarks[i].Name < f.Benchmarks[j].Name
		}
		return f.Benchmarks[i].Procs < f.Benchmarks[j].Procs
	})
}

// Load reads a committed snapshot from path.
func Load(path string) (File, error) {
	var f File
	data, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	return f, json.Unmarshal(data, &f)
}

// Write commits f to path as indented JSON with a trailing newline.
func (f File) Write(path string) error {
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// MergeInto commits f to path, folding it into whatever snapshot is
// already there: rows with a matching (name, procs) key are replaced, new
// rows are appended, everything else is preserved. Experiment drivers use
// this to add their synthetic rows (ShardScale/…) to the rows already
// committed in the same BENCH_PR*.json. A missing file is the empty
// snapshot.
func (f File) MergeInto(path string) error {
	merged, err := Load(path)
	if err != nil {
		if !os.IsNotExist(err) {
			return err
		}
		merged = File{}
	}
	replace := make(map[benchKey]Benchmark, len(f.Benchmarks))
	for _, b := range f.Benchmarks {
		replace[benchKey{b.Name, b.Procs}] = b
	}
	out := merged.Benchmarks[:0]
	for _, b := range merged.Benchmarks {
		if nb, ok := replace[benchKey{b.Name, b.Procs}]; ok {
			b = nb
			delete(replace, benchKey{b.Name, b.Procs})
		}
		out = append(out, b)
	}
	for _, b := range f.Benchmarks {
		if _, ok := replace[benchKey{b.Name, b.Procs}]; ok {
			out = append(out, b)
		}
	}
	merged.Benchmarks = out
	merged.Sort()
	return merged.Write(path)
}

type benchKey struct {
	name  string
	procs int
}
