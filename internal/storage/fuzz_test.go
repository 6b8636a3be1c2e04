package storage

import "testing"

// FuzzDecodeBody checks that WAL record decoding never panics on corrupt
// bytes and that valid encodings round-trip.
func FuzzDecodeBody(f *testing.F) {
	f.Add(encodeBody(opPut, "table", "key", []byte("value")))
	f.Add(encodeBody(opDelete, "t", "k", nil))
	f.Add([]byte{})
	f.Add([]byte{1, 255, 255, 255, 255})
	f.Fuzz(func(t *testing.T, data []byte) {
		o, _, err := decodeOne(data)
		if err != nil {
			return
		}
		// A successfully decoded body re-encodes to an equivalent record.
		o2, _, err := decodeOne(encodeBody(o.op, o.table, o.key, o.value))
		if err != nil || o2.op != o.op || o2.table != o.table || o2.key != o.key || string(o2.value) != string(o.value) {
			t.Fatalf("round trip failed for %q", data)
		}
	})
}
