package types

import "testing"

// BenchmarkDecodeKeyString decodes a shuffle key's string column, the
// shape of a TPC-H name or URL group key, with an escaped NUL.
func BenchmarkDecodeKeyString(b *testing.B) {
	key := AppendKeyDatum(nil, String("Customer#000004242\x00Supplier#000000017"), true)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := DecodeKeyDatum(key, KindString, true); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAppendDate renders a date's text form, per lineitem row
// three times over in a Text copy of the table.
func BenchmarkAppendDate(b *testing.B) {
	var buf []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = Date(int64(8000 + i%2500)).AppendText(buf[:0])
	}
}
