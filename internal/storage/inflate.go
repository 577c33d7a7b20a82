package storage

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
)

// A raw DEFLATE (RFC 1951) decoder for whole column streams.
//
// readColumnStream holds each compressed stream in memory before it
// inflates it, so the decoder reads the stream as one []byte through a
// 64-bit bit buffer and appends to the inflater's reused output
// buffer: matches are copied inside that buffer, with no window ring,
// and the Huffman tables are rebuilt in place for each dynamic block.
//
// It accepts exactly the streams compress/flate's decompressor accepts
// (TestInflateMatchesStdlib and FuzzInflate hold the two to the same
// bytes and the same verdict): over-subscribed codes and
// incomplete ones other than a single code of length 1 are rejected,
// as are HLIT > 286, HDIST > 30, a leading repeat code, repeats past
// the code-length list, literal/length symbols 286–287, distance
// symbols 30–31, distances before the start of the output, stored
// blocks whose NLEN is not ~LEN, block type 3 and truncated input.
// Decoding ends after the final block; trailing bytes are ignored.

const (
	litRootBits  = 10
	distRootBits = 8
	clenRootBits = 7 // a code-length code is at most 7 bits long: no subtables

	// A complete code's subtable under one root entry has k index bits
	// and holds at least k+1 codes, so the subtables of 288 codes with
	// 15-bit maximum length fit in 48 tables of 32 entries beyond a
	// 10-bit root, and those of 30 distance codes in 3×128+32 entries
	// beyond an 8-bit root.
	litTableSize  = 1<<litRootBits + 48*32
	distTableSize = 1<<distRootBits + 3*128 + 32

	// A table entry is sym<<16 | length for a code (length 1–15, 0 for
	// a bit pattern no code has), or start<<16 | linkEntry | bits<<4 for
	// a root entry whose codes continue in a subtable of 1<<bits entries
	// at start. Subtable entries carry the code's full length.
	linkEntry = 1 << 8

	endOfBlock = 256
	maxLitSym  = 286 // symbols 286 and 287 have fixed codes but no meaning
	maxDistSym = 30
	maxMatch   = 258
)

// codeOrder is the order of the code-length code's lengths in a
// dynamic block header.
var codeOrder = [19]uint8{16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15}

// Length symbols 257–285 and distance symbols 0–29: base value and
// count of extra bits.
var (
	lenBase = [29]uint16{3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 15, 17, 19, 23, 27, 31,
		35, 43, 51, 59, 67, 83, 99, 115, 131, 163, 195, 227, 258}
	lenExtra = [29]uint8{0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2,
		3, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5, 0}
	distBase = [maxDistSym]uint16{1, 2, 3, 4, 5, 7, 9, 13, 17, 25, 33, 49, 65, 97, 129, 193,
		257, 385, 513, 769, 1025, 1537, 2049, 3073, 4097, 6145, 8193, 12289, 16385, 24577}
	distExtra = [maxDistSym]uint8{0, 0, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6,
		7, 7, 8, 8, 9, 9, 10, 10, 11, 11, 12, 12, 13, 13}
)

// The fixed-code tables (RFC 1951 §3.2.6), built once and read-only
// after init. The fixed distance code gives all 32 symbols 5 bits.
var (
	fixedLit  [litTableSize]uint32
	fixedDist [distTableSize]uint32
)

func init() {
	var lens [288]uint8
	for i := range lens {
		switch {
		case i < 144:
			lens[i] = 8
		case i < 256:
			lens[i] = 9
		case i < 280:
			lens[i] = 7
		default:
			lens[i] = 8
		}
	}
	var dist [32]uint8
	for i := range dist {
		dist[i] = 5
	}
	if !buildHuffman(fixedLit[:], litRootBits, lens[:]) || !buildHuffman(fixedDist[:], distRootBits, dist[:]) {
		panic("storage: fixed huffman tables")
	}
}

// buildHuffman fills table with the decoding table of the canonical
// code whose code lengths (0 = symbol unused) are lens, indexed by the
// next root bits of the stream. It reports false where compress/flate
// rejects the code: over-subscribed, or incomplete and not a single
// code of length 1. An empty code is accepted and decodes nothing.
//
// A code whose longest length l is under root is built in the first
// 1<<l entries, which then repeat over the rest of the root: the work
// is sized to the code, and the decoder indexes every table by its
// constant root width.
func buildHuffman(table []uint32, root uint, lens []uint8) bool {
	var count [16]int
	maxLen := 0
	for _, l := range lens {
		count[l]++
		if int(l) > maxLen {
			maxLen = int(l)
		}
	}
	count[0] = 0
	full := root
	root = min(root, uint(maxLen))
	clear(table[:1<<root])
	if maxLen == 0 {
		repeatRoot(table, root, full)
		return true
	}
	next, end := firstCodes(&count, maxLen)
	if end != 1<<maxLen && !(end == 1 && maxLen == 1) {
		return false
	}

	// Symbols in canonical order: by length, then by value.
	var offs [16]int
	for l := 1; l <= maxLen; l++ {
		offs[l] = offs[l-1] + count[l-1]
	}
	var sorted [288]uint16
	for s, l := range lens {
		if l != 0 {
			sorted[offs[l]] = uint16(s)
			offs[l]++
		}
	}
	n := offs[maxLen]

	mask := 1<<root - 1
	free := 1 << root // next unused subtable slot
	prefix := -1      // root index of the current subtable
	sub := 0          // its start
	for _, s := range sorted[:n] {
		l := int(lens[s])
		c := next[l]
		next[l]++
		r := int(bits.Reverse16(uint16(c)) >> (16 - l))
		if l <= int(root) {
			e := uint32(s)<<16 | uint32(l)
			for j := r; j <= mask; j += 1 << l {
				table[j] = e
			}
			count[l]--
			continue
		}
		if p := r & mask; p != prefix {
			// Size the subtable by the fewest bits whose subtree the
			// remaining codes fill, the current one included.
			sb := l - int(root)
			left := 1 << sb
			for sb+int(root) < maxLen {
				left -= count[sb+int(root)]
				if left <= 0 {
					break
				}
				sb++
				left <<= 1
			}
			if free+1<<sb > len(table) {
				return false
			}
			prefix, sub = p, free
			free += 1 << sb
			table[p] = uint32(sub)<<16 | linkEntry | uint32(sb)<<4
		}
		e := uint32(s)<<16 | uint32(l)
		sb := int(table[prefix]>>4) & 15
		for j := r >> root; j < 1<<sb; j += 1 << (l - int(root)) {
			table[sub+j] = e
		}
		count[l]--
	}
	repeatRoot(table, root, full)
	return true
}

// repeatRoot copies the first 1<<built entries of table over the rest
// of its 1<<root root entries.
func repeatRoot(table []uint32, built, root uint) {
	for n := 1 << built; n < 1<<root; n <<= 1 {
		copy(table[n:2*n], table[:n])
	}
}

// inflate decompresses the raw DEFLATE stream src into the raw buffer,
// which it returns. A buffer too small for four times src grows to that
// at once, so a new inflater sized by the streams it meets rarely
// regrows.
func (in *inflater) inflate(src []byte) ([]byte, error) {
	in.raw = slices.Grow(in.raw[:0], 4*len(src))
	d := inflateState{src: src}
	for {
		if err := d.need(3); err != nil {
			return nil, err
		}
		final := d.bits&1 == 1
		typ := d.bits >> 1 & 3
		d.drop(3)
		var err error
		switch typ {
		case 0:
			in.raw, err = d.stored(in.raw)
		case 1:
			in.raw, err = d.huffman(in.raw, &fixedLit, &fixedDist)
		case 2:
			if err = d.header(in); err == nil {
				in.raw, err = d.huffman(in.raw, &in.lit, &in.dist)
			}
		default:
			err = corruptAt(d.consumed(), "reserved block type 3")
		}
		if err != nil {
			return nil, err
		}
		if final {
			break
		}
	}
	if d.consumed() > 8*len(src) {
		return nil, truncated(d.src)
	}
	return in.raw, nil
}

// inflateState is the bit reader over one stream. bits holds the next
// nbits unread bits of the stream, least significant first; bits
// above nbits are zero or the stream's own. Past the end of src the
// stream reads as zero bytes, pos still counting them, and the reader
// fails as truncated at the first refill that finds a padded bit
// consumed, so a cut stream never decodes padding for long.
type inflateState struct {
	src   []byte
	pos   int
	bits  uint64
	nbits uint
}

// consumed is the number of bits decoded so far.
func (d *inflateState) consumed() int { return d.pos*8 - int(d.nbits) }

// corruptAt reports what was wrong with the stream, decoded to bit
// consumed.
func corruptAt(consumed int, what string) error {
	return fmt.Errorf("%s at byte %d", what, consumed/8)
}

func truncated(src []byte) error {
	return fmt.Errorf("stream truncated at byte %d", len(src))
}

func (d *inflateState) drop(n uint) {
	d.bits >>= n
	d.nbits -= n
}

// need makes at least n ≤ 56 bits available.
func (d *inflateState) need(n uint) error {
	if d.nbits >= n {
		return nil
	}
	var err error
	d.bits, d.nbits, d.pos, err = refill(d.src, d.bits, d.nbits, d.pos)
	return err
}

// refill tops the bit buffer up to at least 56 bits: eight bytes at a
// time while src holds eight more, then byte by byte, padding with
// zeros past the end.
func refill(src []byte, b uint64, nb uint, pos int) (uint64, uint, int, error) {
	if pos+8 <= len(src) {
		b |= binary.LittleEndian.Uint64(src[pos:]) << nb
		pos += int(63-nb) >> 3
		return b, nb | 56, pos, nil
	}
	for nb <= 56 {
		if pos < len(src) {
			b |= uint64(src[pos]) << nb
		}
		pos++
		nb += 8
	}
	if pos*8-int(nb) > 8*len(src) {
		return b, nb, pos, truncated(src)
	}
	return b, nb, pos, nil
}

// stored copies a stored block's bytes to out.
func (d *inflateState) stored(out []byte) ([]byte, error) {
	p := (d.consumed() + 7) / 8
	if p+4 > len(d.src) {
		return out, truncated(d.src)
	}
	n := int(binary.LittleEndian.Uint16(d.src[p:]))
	if nn := binary.LittleEndian.Uint16(d.src[p+2:]); nn != ^uint16(n) {
		return out, corruptAt(8*p, fmt.Sprintf("stored block length %d with complement %#04x", n, nn))
	}
	p += 4
	if p+n > len(d.src) {
		return out, truncated(d.src)
	}
	out = append(out, d.src[p:p+n]...)
	d.pos, d.bits, d.nbits = p+n, 0, 0
	return out, nil
}

// header reads a dynamic block's code lengths and builds in's
// literal/length and distance tables from them.
func (d *inflateState) header(in *inflater) error {
	if err := d.need(14); err != nil {
		return err
	}
	nlit := int(d.bits&0x1f) + 257
	ndist := int(d.bits>>5&0x1f) + 1
	nclen := int(d.bits>>10&0xf) + 4
	d.drop(14)
	if nlit > maxLitSym {
		return corruptAt(d.consumed(), fmt.Sprintf("%d literal/length codes", nlit))
	}
	if ndist > maxDistSym {
		return corruptAt(d.consumed(), fmt.Sprintf("%d distance codes", ndist))
	}
	var clens [19]uint8
	for _, s := range codeOrder[:nclen] {
		if err := d.need(3); err != nil {
			return err
		}
		clens[s] = uint8(d.bits & 7)
		d.drop(3)
	}
	if !buildHuffman(in.clen[:], clenRootBits, clens[:]) {
		return corruptAt(d.consumed(), "bad code-length code")
	}
	lens := in.lens[:nlit+ndist]
	for i := 0; i < len(lens); {
		if err := d.need(clenRootBits + 7); err != nil {
			return err
		}
		e := in.clen[d.bits&(1<<clenRootBits-1)]
		if e&15 == 0 {
			return corruptAt(d.consumed(), "bad code-length symbol")
		}
		d.drop(uint(e & 15))
		sym := uint8(e >> 16)
		if sym < 16 {
			lens[i] = sym
			i++
			continue
		}
		var rep int
		var v uint8
		switch sym {
		case 16:
			if i == 0 {
				return corruptAt(d.consumed(), "repeat with no previous length")
			}
			rep, v = 3+int(d.bits&3), lens[i-1]
			d.drop(2)
		case 17:
			rep = 3 + int(d.bits&7)
			d.drop(3)
		default:
			rep = 11 + int(d.bits&0x7f)
			d.drop(7)
		}
		if i+rep > len(lens) {
			return corruptAt(d.consumed(), "code lengths repeat past the list")
		}
		for end := i + rep; i < end; i++ {
			lens[i] = v
		}
	}
	if !buildHuffman(in.lit[:], litRootBits, lens[:nlit]) || !buildHuffman(in.dist[:], distRootBits, lens[nlit:]) {
		return corruptAt(d.consumed(), "bad literal/length or distance code")
	}
	return nil
}

// huffman decodes one compressed block through the given tables,
// appending to out. It writes into out's spare capacity, kept at
// maxMatch+8 bytes or more at the top of each symbol so a literal or a
// whole match fits, the match's last 8-byte word included.
func (d *inflateState) huffman(out []byte, lit *[litTableSize]uint32, dist *[distTableSize]uint32) ([]byte, error) {
	src := d.src
	b, nb, pos := d.bits, d.nbits, d.pos
	w := len(out)
	buf := out[:cap(out)]
	for {
		// One literal/length code, its extra bits, a distance code and
		// its extra bits take at most 15+5+15+13 = 48 bits. Away from
		// the tail the buffer is topped up on every symbol: a branch on
		// the bit count would be mispredicted about once a literal.
		if pos+8 <= len(src) {
			b |= binary.LittleEndian.Uint64(src[pos:]) << nb
			pos += int(63-nb) >> 3
			nb |= 56
		} else if nb < 48 {
			var err error
			if b, nb, pos, err = refill(src, b, nb, pos); err != nil {
				return buf[:w], err
			}
		}
		if len(buf)-w < maxMatch+8 {
			buf = slices.Grow(buf[:w], maxMatch+8)
			buf = buf[:cap(buf)]
		}
		e := lit[b&(1<<litRootBits-1)]
		if e&linkEntry != 0 {
			e = lit[e>>16+uint32(b>>litRootBits)&(1<<(e>>4&15)-1)]
		}
		n := uint(e & 15)
		if n == 0 {
			return buf[:w], corruptAt(pos*8-int(nb), "bad literal/length code")
		}
		b >>= n
		nb -= n
		sym := int(e >> 16)
		if sym < endOfBlock {
			buf[w] = byte(sym)
			w++
			// At least 33 bits are left: enough for a second literal
			// from the root table without going back for a refill.
			if e = lit[b&(1<<litRootBits-1)]; e&15 != 0 && e < endOfBlock<<16 {
				b >>= e & 15
				nb -= uint(e & 15)
				buf[w] = byte(e >> 16)
				w++
			}
			continue
		}
		if sym == endOfBlock {
			d.bits, d.nbits, d.pos = b, nb, pos
			return buf[:w], nil
		}
		if sym >= maxLitSym {
			return buf[:w], corruptAt(pos*8-int(nb), "bad literal/length symbol")
		}
		sym -= endOfBlock + 1
		x := uint(lenExtra[sym])
		length := int(lenBase[sym]) + int(b&(1<<x-1))
		b >>= x
		nb -= x

		e = dist[b&(1<<distRootBits-1)]
		if e&linkEntry != 0 {
			e = dist[e>>16+uint32(b>>distRootBits)&(1<<(e>>4&15)-1)]
		}
		n = uint(e & 15)
		if n == 0 {
			return buf[:w], corruptAt(pos*8-int(nb), "bad distance code")
		}
		b >>= n
		nb -= n
		ds := int(e >> 16)
		if ds >= maxDistSym {
			return buf[:w], corruptAt(pos*8-int(nb), "bad distance symbol")
		}
		x = uint(distExtra[ds])
		dst := int(distBase[ds]) + int(b&(1<<x-1))
		b >>= x
		nb -= x
		if dst > w {
			return buf[:w], corruptAt(pos*8-int(nb), fmt.Sprintf("distance %d past %d bytes of output", dst, w))
		}
		if dst >= 8 {
			// Word by word, forward: each word's source lies dst ≥ 8
			// bytes back, so it is written before it is read; the last
			// word may spill up to 7 bytes into the spare capacity.
			for i := w; i < w+length; i += 8 {
				binary.LittleEndian.PutUint64(buf[i:], binary.LittleEndian.Uint64(buf[i-dst:]))
			}
		} else {
			for i := w; i < w+length; i++ {
				buf[i] = buf[i-dst]
			}
		}
		w += length
	}
}
