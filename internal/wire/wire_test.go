package wire

import "testing"

// TestStringDecoderDoesNotCopy: decoding a string reads its bytes in
// place; only the values a caller keeps are allocated.
func TestStringDecoderDoesNotCopy(t *testing.T) {
	key := string(AppendF64s(AppendInt(nil, 7), make([]float64, 60)))
	allocs := testing.AllocsPerRun(100, func() {
		d := NewStringDecoder(key)
		if d.Int() != 7 {
			t.Fatal("wrong leading int")
		}
		for n := d.Count(8); n > 0; n-- {
			d.F64()
		}
		if err := d.Finish(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("decoding a %d-byte string allocates %v times, want 0", len(key), allocs)
	}
}
