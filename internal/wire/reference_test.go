package wire

// The codec this package shipped until the hand-written one replaced it:
// encoding/xml reflecting over the xml tags of wire.go. It is the oracle of
// FuzzCodecEquivalence and of nothing else; no production path imports
// encoding/xml.

import (
	"encoding/xml"
	"fmt"
	"io"
)

// refEncoder writes a stream of XML messages.
type refEncoder struct {
	enc *xml.Encoder
	w   io.Writer
}

func newRefEncoder(w io.Writer) *refEncoder {
	return &refEncoder{enc: xml.NewEncoder(w), w: w}
}

// Encode writes one message followed by a newline separator.
func (e *refEncoder) Encode(v interface{}) error {
	if err := e.enc.Encode(v); err != nil {
		return fmt.Errorf("wire: encode: %w", err)
	}
	if err := e.enc.Flush(); err != nil {
		return err
	}
	_, err := e.w.Write([]byte("\n"))
	return err
}

// refDecoder reads a stream of XML messages.
type refDecoder struct {
	dec *xml.Decoder
}

func newRefDecoder(r io.Reader) *refDecoder {
	return &refDecoder{dec: xml.NewDecoder(r)}
}

// Decode reads the next message into v. io.EOF signals a cleanly closed
// stream.
func (d *refDecoder) Decode(v interface{}) error {
	err := d.dec.Decode(v)
	if err == io.EOF {
		return io.EOF
	}
	if err != nil {
		return fmt.Errorf("wire: decode: %w", err)
	}
	return nil
}
