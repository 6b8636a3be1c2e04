package benchfmt

import (
	"path/filepath"
	"testing"
)

func TestWriteLoadRoundTrip(t *testing.T) {
	f := File{Benchmarks: []Benchmark{
		{Name: "LinkParallel", Procs: 8, Iterations: 1000, NsPerOp: 1234567, BytesPerOp: 2048, AllocsPerOp: 12},
		{Name: "GroupCommit", Procs: 4, Iterations: 2000, NsPerOp: 55555, BytesPerOp: -1, AllocsPerOp: -1,
			Metrics: map[string]float64{"fsyncs/op": 0.125}},
	}}
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := f.Write(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded.Benchmarks) != len(f.Benchmarks) {
		t.Fatalf("round trip lost benchmarks: %d vs %d", len(loaded.Benchmarks), len(f.Benchmarks))
	}
	b, ok := loaded.Find("LinkParallel", 8)
	if !ok || b.NsPerOp != 1234567 {
		t.Fatalf("round trip mangled LinkParallel: %+v (ok=%v)", b, ok)
	}
	if b, ok := loaded.Find("GroupCommit", 4); !ok || b.Metrics["fsyncs/op"] != 0.125 {
		t.Fatalf("round trip lost the custom metric: %+v (ok=%v)", b, ok)
	}
}
