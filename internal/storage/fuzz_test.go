package storage

import "testing"

// FuzzDecodeBody checks that WAL record decoding never panics on corrupt
// bytes and that valid encodings round-trip.
func FuzzDecodeBody(f *testing.F) {
	f.Add(encodeBody(BatchOp{Table: "table", Key: "key", Value: []byte("value")}))
	f.Add(encodeBody(BatchOp{Table: "t", Key: "k", Delete: true}))
	f.Add([]byte{})
	f.Add([]byte{1, 255, 255, 255, 255})
	f.Fuzz(func(t *testing.T, data []byte) {
		o, _, err := decodeOne(data)
		if err != nil {
			return
		}
		// A successfully decoded body re-encodes to an equivalent record; a
		// delete's value is not part of it.
		o2, _, err := decodeOne(encodeBody(o))
		if err != nil || o2.Delete != o.Delete || o2.Table != o.Table || o2.Key != o.Key ||
			!o.Delete && string(o2.Value) != string(o.Value) {
			t.Fatalf("round trip failed for %q", data)
		}
	})
}
