// The match finder, the Huffman code construction and the block
// writer below are ported from Go's compress/flate (deflatefast.go,
// huffman_code.go and huffman_bit_writer.go), restricted to what
// BestSpeed reaches:
//
// Copyright 2009 The Go Authors. All rights reserved.
// Use of this source code is governed by a BSD-style
// license that can be found in the LICENSE file of the Go distribution.

package storage

import (
	"encoding/binary"
	"math"
	"math/bits"
	"slices"
	"sync"
)

// A raw DEFLATE (RFC 1951) encoder for whole column streams.
//
// flushStripe compresses each column stream from one in-memory buffer
// into the stripe buffer, so the encoder takes the whole stream as one
// []byte: blocks are sub-slices of it (the match finder's history is
// the block before, read in place), and bits go through a 64-bit
// accumulator straight into the output slice.
//
// Its output is byte for byte what compress/flate writes at BestSpeed
// for one Write of the stream followed by Close (TestDeflateMatchesStdlib
// and FuzzDeflate hold the two to that), because the file bytes decide
// every ORC count and the simulated times priced from them:
//   - the stream is cut into blocks of maxStoreBlockSize bytes; a last
//     shorter block of at most 16 bytes is stored and one under 128
//     bytes is Huffman-coded as literals only, both without matching;
//   - matches may reach into the previous block of the same stream,
//     never into an earlier stream;
//   - a block whose matches removed less than 1/16 of its bytes is
//     Huffman-coded as literals only, any other with its tokens, each
//     with its own dynamic codes; either way it is stored instead when
//     that is smaller than 17/16 of the coded size without the extra
//     bits (fixed codes are never used at this level);
//   - every block is non-final, and the stream ends with an empty final
//     stored block.
//
// The code construction is compress/flate's, computed with concrete
// types: symbols sort as packed freq<<9|symbol keys (the order byFreq
// gives), the boundary package-merge is unchanged, and codes are
// assigned canonically in symbol order (RFC 1951 §3.2.2) rather than by
// sorting each length's symbols.

const (
	maxStoreBlockSize = 65535
	maxMatchOffset    = 1 << 15

	// The match finder's hash table, and the offset at which its
	// positions are rebased so they stay int32.
	fastTableBits  = 14
	fastTableSize  = 1 << fastTableBits
	fastTableMask  = fastTableSize - 1
	fastTableShift = 32 - fastTableBits
	bufferReset    = math.MaxInt32 - maxStoreBlockSize*2

	// No match starts in a block's last inputMargin bytes.
	inputMargin = 16 - 1

	// Stream tails shorter than these are stored, or coded without
	// matching.
	storedTail = 16
	huffTail   = 128

	codegenCodeCount = 19
	maxCodeBits      = 15
	maxCodegenBits   = 7
	badCode          = 255
)

// lengthCodes maps a match length minus 3 to its length symbol minus
// 257; offsetCodes a distance minus 1 below 256, or that over 128 plus
// 14, to its distance symbol. symExtra and distSymExtra are lenExtra
// and distExtra indexed by a token's symbol fields.
var (
	lengthCodes  [256]uint8
	offsetCodes  [256]uint8
	symExtra     [512]uint8
	distSymExtra [32]uint8
)

func init() {
	copy(symExtra[endOfBlock+1:], lenExtra[:])
	copy(distSymExtra[:], distExtra[:])
	for c, base := range lenBase {
		for x := int(base) - 3; x < 256; x++ {
			lengthCodes[x] = uint8(c)
		}
	}
	for c, base := range distBase[:16] {
		for x := int(base) - 1; x < 256; x++ {
			offsetCodes[x] = uint8(c)
		}
	}
}

func offsetCode(off uint32) uint32 {
	if off < 256 {
		return uint32(offsetCodes[off])
	}
	return uint32(offsetCodes[off>>7]) + 14
}

// A token is a literal byte, endOfBlock, or a match: its length symbol
// (257–285) in bits 0–8, distance symbol in 9–13, and the extra bits of
// the length in 14–18 and of the distance in 19–31.
type token uint32

func matchToken(length, dist uint32) token {
	lc := uint32(lengthCodes[length-3])
	oc := offsetCode(dist - 1)
	return token(endOfBlock + 1 + lc | oc<<9 |
		(length-uint32(lenBase[lc]))<<14 | (dist-uint32(distBase[oc]))<<19)
}

// hcode is one symbol's code, bit-reversed for LSB-first output.
type hcode struct {
	code, len uint16
}

// huffOffset is the distance code of a literals-only block: symbol 0
// alone, one bit long.
var huffOffset = [1]hcode{{code: 0, len: 1}}

type tableEntry struct {
	val    uint32 // the four bytes at offset
	offset int32
}

// deflater is the pooled write-side codec state: the match finder's
// table, one block's tokens, the frequencies and codes of its Huffman
// block, the bit accumulator, and the buffer a writer collects a
// stripe's streams in while it holds the deflater. Its history is cut
// at every stream (compress), so the bytes it writes do not depend on
// what it wrote before.
type deflater struct {
	table [fastTableSize]tableEntry
	cur   int32 // the position of the current block's first byte

	tokens [maxStoreBlockSize + 1]token

	litFreq     [maxLitSym]int32
	offFreq     [maxDistSym]int32
	codegenFreq [codegenCodeCount]int32
	codegen     [maxLitSym + maxDistSym + 1]uint8
	lit         [512]hcode // indexed by a token's symbol field
	off         [32]hcode
	cg          [codegenCodeCount]hcode
	keys        [maxLitSym]uint32
	freqs       [maxLitSym + 1]int32
	nodes       [maxLitSym]int32 // huffmanCounts' joined nodes' weights
	removed     [2 * maxLitSym]int16
	depths      [maxLitSym]uint8

	out   []byte
	bits  uint64
	nbits uint

	stripe []byte
}

func newDeflater() *deflater { return &deflater{cur: maxStoreBlockSize} }

// deflaters recycles deflaters; flushStripe holds one for a stripe.
var deflaters = sync.Pool{New: func() any { return newDeflater() }}

// compress appends the raw DEFLATE stream of src to dst. A dst without
// room for src stored grows to at least twice its capacity at once, so
// a buffer that collects many streams regrows rarely.
func (d *deflater) compress(dst, src []byte) []byte {
	if room := len(src) + 5*(len(src)/maxStoreBlockSize+2); cap(dst)-len(dst) < room {
		dst = slices.Grow(dst, max(room, cap(dst)))
	}
	d.out, d.bits, d.nbits = dst, 0, 0
	d.cur += maxMatchOffset // no match reaches an earlier stream
	if d.cur >= bufferReset {
		d.shiftOffsets(false)
	}
	for start := 0; start < len(src); start += maxStoreBlockSize {
		block := src[start:min(start+maxStoreBlockSize, len(src))]
		switch {
		case len(block) <= storedTail:
			d.writeStored(block, false)
			continue
		case len(block) < huffTail:
			d.writeBlockHuff(block)
			continue
		}
		var prev []byte
		if start > 0 {
			prev = src[start-maxStoreBlockSize : start]
		}
		if n := d.encode(block, prev); n > len(block)-len(block)>>4 {
			d.writeBlockHuff(block)
		} else {
			d.writeBlockDynamic(n, block)
		}
	}
	d.writeStored(nil, true)
	out := d.out
	d.out = nil
	return out
}

// shiftOffsets rebases the table's positions so the current block
// starts at maxMatchOffset+1, dropping those too far back to match.
func (d *deflater) shiftOffsets(history bool) {
	if !history {
		clear(d.table[:])
		d.cur = maxMatchOffset + 1
		return
	}
	for i := range d.table {
		d.table[i].offset = max(d.table[i].offset-d.cur+maxMatchOffset+1, 0)
	}
	d.cur = maxMatchOffset + 1
}

func load32(b []byte, i int32) uint32 {
	return binary.LittleEndian.Uint32(b[i:])
}

func load64(b []byte, i int32) uint64 {
	return binary.LittleEndian.Uint64(b[i:])
}

func fastHash(u uint32) uint32 {
	return (u * 0x1e35a7bd) >> fastTableShift
}

// encode finds the matches of a block of at least huffTail bytes, whose
// stream holds prev (the previous block, or nil) just before it, and
// leaves its tokens in d.tokens and their symbols' counts in d.litFreq
// and d.offFreq. It returns the number of tokens.
func (d *deflater) encode(src, prev []byte) int {
	if d.cur >= bufferReset {
		d.shiftOffsets(len(prev) > 0)
	}
	clear(d.litFreq[:])
	clear(d.offFreq[:])
	tokens, litFreq, offFreq := d.tokens[:], &d.litFreq, &d.offFreq
	nt := 0
	sLimit := int32(len(src) - inputMargin)
	nextEmit := int32(0)
	s := int32(0)
	cv := load32(src, s)
	nextHash := fastHash(cv)

	for {
		// Heuristic match skipping, from Snappy: after 32 bytes without
		// a match look at every other byte, after 32 more at every
		// third, and so on.
		skip := int32(32)

		nextS := s
		var candidate tableEntry
		for {
			s = nextS
			step := skip >> 5
			nextS = s + step
			skip += step
			if nextS > sLimit {
				goto emitRemainder
			}
			candidate = d.table[nextHash&fastTableMask]
			now := load32(src, nextS)
			d.table[nextHash&fastTableMask] = tableEntry{offset: s + d.cur, val: cv}
			nextHash = fastHash(now)

			offset := s - (candidate.offset - d.cur)
			if offset > maxMatchOffset || cv != candidate.val {
				cv = now
				continue
			}
			break
		}

		for _, b := range src[nextEmit:s] {
			tokens[nt] = token(b)
			litFreq[b]++
			nt++
		}

		// Emit the match at s, then look for another right after it.
		for {
			s += 4
			t := candidate.offset - d.cur + 4
			l := matchLen(src, prev, s, t)
			tok := matchToken(uint32(l+4), uint32(s-t))
			tokens[nt] = tok
			litFreq[tok&511]++
			offFreq[tok>>9&31]++
			nt++
			s += l
			nextEmit = s
			if s >= sLimit {
				goto emitRemainder
			}

			// Index s-1 and s, and try a match at s.
			x := load64(src, s-1)
			prevHash := fastHash(uint32(x))
			d.table[prevHash&fastTableMask] = tableEntry{offset: d.cur + s - 1, val: uint32(x)}
			x >>= 8
			currHash := fastHash(uint32(x))
			candidate = d.table[currHash&fastTableMask]
			d.table[currHash&fastTableMask] = tableEntry{offset: d.cur + s, val: uint32(x)}

			offset := s - (candidate.offset - d.cur)
			if offset > maxMatchOffset || uint32(x) != candidate.val {
				cv = uint32(x >> 8)
				nextHash = fastHash(cv)
				s++
				break
			}
		}
	}

emitRemainder:
	for _, b := range src[nextEmit:] {
		tokens[nt] = token(b)
		litFreq[b]++
		nt++
	}
	d.cur += int32(len(src))
	return nt
}

// matchLen returns how far src[s:] goes on matching the bytes at t,
// which is negative for a match starting in prev, up to a match length
// of maxMatch-4 and the end of src. The 4 bytes before both agree.
func matchLen(src, prev []byte, s, t int32) int32 {
	s1 := min(int(s)+maxMatch-4, len(src))
	if t >= 0 {
		return int32(commonPrefix(src[s:s1], src[t:]))
	}
	tp := int32(len(prev)) + t
	if tp < 0 {
		return 0
	}
	a := src[s:s1]
	b := prev[tp:]
	if len(b) > len(a) {
		b = b[:len(a)]
	}
	n := commonPrefix(b, a)
	if n < len(b) || int(s)+n == s1 {
		return int32(n)
	}
	// The match runs on from the end of prev into the start of src.
	return int32(n + commonPrefix(src[int(s)+n:s1], src))
}

// commonPrefix returns the length of the longest common prefix of a
// and b, where len(b) ≥ len(a).
func commonPrefix(a, b []byte) int {
	n := 0
	for ; n+8 <= len(a); n += 8 {
		if x := binary.LittleEndian.Uint64(a[n:]) ^ binary.LittleEndian.Uint64(b[n:]); x != 0 {
			return n + bits.TrailingZeros64(x)>>3
		}
	}
	for ; n < len(a); n++ {
		if a[n] != b[n] {
			break
		}
	}
	return n
}

// The bit writer. Bits go out least significant first, six bytes at a
// time once 48 are pending.

func (d *deflater) writeBits(b uint64, nb uint) {
	d.bits |= b << d.nbits
	d.nbits += nb
	if d.nbits >= 48 {
		d.out = binary.LittleEndian.AppendUint64(d.out, d.bits)[:len(d.out)+6]
		d.bits >>= 48
		d.nbits -= 48
	}
}

func (d *deflater) writeCode(c hcode) { d.writeBits(uint64(c.code), uint(c.len)) }

// flush writes the pending bits, padding the last byte with zeros.
func (d *deflater) flush() {
	for ; d.nbits > 0; d.nbits -= min(d.nbits, 8) {
		d.out = append(d.out, byte(d.bits))
		d.bits >>= 8
	}
	d.bits = 0
}

// writeStored writes b as one stored block.
func (d *deflater) writeStored(b []byte, final bool) {
	var flag uint64
	if final {
		flag = 1
	}
	d.writeBits(flag, 3)
	d.flush()
	d.writeBits(uint64(len(b)), 16)
	d.writeBits(uint64(^uint16(len(b))), 16)
	d.flush()
	d.out = append(d.out, b...)
}

// storedBits is the size of a block of n bytes stored.
func storedBits(n int) int { return (n + 5) * 8 }

// writeBlockDynamic writes input's n tokens with their own codes, or
// input stored if that is smaller than 17/16 of the coded size (extra
// bits not counted).
func (d *deflater) writeBlockDynamic(n int, input []byte) {
	d.tokens[n] = endOfBlock
	tokens := d.tokens[:n+1]
	d.litFreq[endOfBlock]++
	numLiterals, numOffsets := d.buildCodes()
	d.generateCodegen(d.lit[:numLiterals], d.off[:numOffsets])
	d.generate(d.cg[:], d.codegenFreq[:], maxCodegenBits)
	size, numCodegens := d.dynamicSize(bitLength(d.lit[:], d.litFreq[:]) + bitLength(d.off[:], d.offFreq[:]))
	if storedBits(len(input)) < size+size>>4 {
		d.writeStored(input, false)
		return
	}
	d.writeDynamicHeader(numLiterals, numOffsets, numCodegens)
	d.writeTokens(tokens, size+d.extraBits())
}

// extraBits is the number of extra bits of the block's counted length
// and distance symbols.
func (d *deflater) extraBits() int {
	total := 0
	for i, x := range lenExtra {
		total += int(d.litFreq[endOfBlock+1+i]) * int(x)
	}
	for i, x := range distExtra {
		total += int(d.offFreq[i]) * int(x)
	}
	return total
}

// spare returns the output with room for the pending bits and nb more
// as its spare capacity, the whole of it, and the pending bits' whole
// bytes written out: 8-byte stores at the returned length stay inside
// the buffer until nb bits have followed.
func (d *deflater) spare(nb int) (buf []byte, n int) {
	out := slices.Grow(d.out, (int(d.nbits)+nb)/8+16)
	buf, n = out[:cap(out)], len(out)
	binary.LittleEndian.PutUint64(buf[n:], d.bits)
	k := d.nbits >> 3
	d.bits >>= k << 3
	d.nbits &= 7
	return buf, n + int(k)
}

// writeBlockHuff writes input as a literals-only block, or stored if
// that is smaller than 17/16 of the coded size.
func (d *deflater) writeBlockHuff(input []byte) {
	clear(d.litFreq[:])
	for _, b := range input {
		d.litFreq[b]++
	}
	d.litFreq[endOfBlock] = 1
	const numLiterals = endOfBlock + 1
	d.generate(d.lit[:], d.litFreq[:], maxCodeBits)
	d.generateCodegen(d.lit[:numLiterals], huffOffset[:])
	d.generate(d.cg[:], d.codegenFreq[:], maxCodegenBits)
	size, numCodegens := d.dynamicSize(bitLength(d.lit[:], d.litFreq[:]) + 1)
	if storedBits(len(input)) < size+size>>4 {
		d.writeStored(input, false)
		return
	}
	d.writeDynamicHeader(numLiterals, len(huffOffset), numCodegens)
	codes := &d.lit
	// Each byte's code is stored at once, whole bytes kept: at most 7
	// bits stay pending, and a code adds at most 15.
	buf, n := d.spare(size)
	acc, nb := d.bits, d.nbits
	for _, b := range input {
		c := codes[b]
		acc |= uint64(c.code) << nb
		nb += uint(c.len)
		binary.LittleEndian.PutUint64(buf[n:], acc)
		k := nb >> 3
		n += int(k)
		acc >>= k << 3
		nb &= 7
	}
	d.bits, d.nbits, d.out = acc, nb, buf[:n]
	d.writeCode(codes[endOfBlock])
}

// buildCodes builds the codes of a block's counted symbols and returns
// how many literal/length and distance codes its header lists.
func (d *deflater) buildCodes() (numLiterals, numOffsets int) {
	numLiterals = len(d.litFreq)
	for d.litFreq[numLiterals-1] == 0 {
		numLiterals--
	}
	numOffsets = len(d.offFreq)
	for numOffsets > 0 && d.offFreq[numOffsets-1] == 0 {
		numOffsets--
	}
	if numOffsets == 0 {
		// A block without matches still lists one distance code.
		d.offFreq[0] = 1
		numOffsets = 1
	}
	d.generate(d.lit[:], d.litFreq[:], maxCodeBits)
	d.generate(d.off[:], d.offFreq[:], maxCodeBits)
	return numLiterals, numOffsets
}

// writeTokens writes tokens, which take at most nb bits, in the block's
// literal/length and distance codes. Each token is stored at once,
// whole bytes kept: at most 7 bits stay pending, and a match's four
// fields add at most 15+5+15+13.
func (d *deflater) writeTokens(tokens []token, nb int) {
	buf, n := d.spare(nb)
	lit, off := &d.lit, &d.off
	acc, pending := d.bits, d.nbits
	for _, t := range tokens {
		c := lit[t&511]
		acc |= uint64(c.code) << pending
		pending += uint(c.len)
		if t > endOfBlock {
			acc |= uint64(t>>14&31) << pending
			pending += uint(symExtra[t&511])
			oc := t >> 9 & 31
			c = off[oc]
			acc |= uint64(c.code) << pending
			pending += uint(c.len)
			acc |= uint64(t>>19) << pending
			pending += uint(distSymExtra[oc])
		}
		binary.LittleEndian.PutUint64(buf[n:], acc)
		k := pending >> 3
		n += int(k)
		acc >>= k << 3
		pending &= 7
	}
	d.bits, d.nbits, d.out = acc, pending, buf[:n]
}

// generateCodegen run-length codes the code lengths of lits and offs
// (RFC 1951 §3.2.7) into d.codegen, ended by badCode, and counts the
// code-length symbols in d.codegenFreq.
func (d *deflater) generateCodegen(lits, offs []hcode) {
	clear(d.codegenFreq[:])
	// codegen holds the lengths while it is rewritten in place: the
	// output never overtakes the input.
	codegen := d.codegen[:]
	for i, c := range lits {
		codegen[i] = uint8(c.len)
	}
	for i, c := range offs {
		codegen[len(lits)+i] = uint8(c.len)
	}
	codegen[len(lits)+len(offs)] = badCode

	size := codegen[0]
	count := 1
	outIndex := 0
	for inIndex := 1; size != badCode; inIndex++ {
		// count copies of size are seen and not yet coded.
		nextSize := codegen[inIndex]
		if nextSize == size {
			count++
			continue
		}
		if size != 0 {
			codegen[outIndex] = size
			outIndex++
			d.codegenFreq[size]++
			count--
			for count >= 3 {
				n := min(count, 6)
				codegen[outIndex] = 16
				codegen[outIndex+1] = uint8(n - 3)
				outIndex += 2
				d.codegenFreq[16]++
				count -= n
			}
		} else {
			for count >= 11 {
				n := min(count, 138)
				codegen[outIndex] = 18
				codegen[outIndex+1] = uint8(n - 11)
				outIndex += 2
				d.codegenFreq[18]++
				count -= n
			}
			if count >= 3 {
				codegen[outIndex] = 17
				codegen[outIndex+1] = uint8(count - 3)
				outIndex += 2
				d.codegenFreq[17]++
				count = 0
			}
		}
		for ; count > 0; count-- {
			codegen[outIndex] = size
			outIndex++
			d.codegenFreq[size]++
		}
		size = nextSize
		count = 1
	}
	codegen[outIndex] = badCode
}

// dynamicSize returns the size in bits of a dynamic block whose codes
// take dataBits, header included, and how many code-length code
// lengths its header lists.
func (d *deflater) dynamicSize(dataBits int) (size, numCodegens int) {
	numCodegens = len(d.codegenFreq)
	for numCodegens > 4 && d.codegenFreq[codeOrder[numCodegens-1]] == 0 {
		numCodegens--
	}
	header := 3 + 5 + 5 + 4 + 3*numCodegens +
		bitLength(d.cg[:], d.codegenFreq[:]) +
		int(d.codegenFreq[16])*2 +
		int(d.codegenFreq[17])*3 +
		int(d.codegenFreq[18])*7
	return header + dataBits, numCodegens
}

// bitLength is the number of bits freq's symbols take in codes.
func bitLength(codes []hcode, freq []int32) int {
	total := 0
	for i, f := range freq {
		total += int(f) * int(codes[i].len)
	}
	return total
}

func (d *deflater) writeDynamicHeader(numLiterals, numOffsets, numCodegens int) {
	d.writeBits(4, 3) // non-final, dynamic
	d.writeBits(uint64(numLiterals-257), 5)
	d.writeBits(uint64(numOffsets-1), 5)
	d.writeBits(uint64(numCodegens-4), 4)
	for _, s := range codeOrder[:numCodegens] {
		d.writeBits(uint64(d.cg[s].len), 3)
	}
	for i := 0; d.codegen[i] != badCode; i++ {
		sym := d.codegen[i]
		d.writeCode(d.cg[sym])
		switch sym {
		case 16:
			i++
			d.writeBits(uint64(d.codegen[i]), 2)
		case 17:
			i++
			d.writeBits(uint64(d.codegen[i]), 3)
		case 18:
			i++
			d.writeBits(uint64(d.codegen[i]), 7)
		}
	}
}

// generate sets codes to the length-limited Huffman code of freq that
// compress/flate builds: lengths by its boundary package-merge over the
// symbols sorted by frequency then symbol (huffmanCounts when the limit
// does not bind), codes assigned canonically. Symbols of frequency 0
// get length 0.
func (d *deflater) generate(codes []hcode, freq []int32, maxBits int) {
	keys := d.keys[:0]
	for i, f := range freq {
		if f != 0 {
			keys = append(keys, uint32(f)<<9|uint32(i))
		} else {
			codes[i].len = 0
		}
	}
	if len(keys) <= 2 {
		// One or two symbols: each gets one bit, in symbol order.
		for i, k := range keys {
			codes[k&511] = hcode{code: uint16(i), len: 1}
		}
		return
	}
	slices.Sort(keys)
	list := d.freqs[:len(keys)+1]
	for i, k := range keys {
		list[i] = int32(k >> 9)
	}
	list[len(keys)] = math.MaxInt32
	var count [16]int
	maxLen := d.huffmanCounts(list, maxBits, &count)
	if maxLen == 0 {
		maxLen = bitCounts(list, maxBits, &count)
	}

	// The least frequent symbols take the longest codes.
	i := len(keys)
	for l := 1; l <= maxLen; l++ {
		for n := count[l]; n > 0; n-- {
			i--
			codes[keys[i]&511].len = uint16(l)
		}
	}
	next, _ := firstCodes(&count, maxLen)
	for s := range freq {
		if l := codes[s].len; l != 0 {
			codes[s].code = bits.Reverse16(uint16(next[l]) << (16 - l))
			next[l]++
		}
	}
}

// huffmanCounts is bitCounts for the common case where the length
// limit does not bind: it builds the Huffman tree of the n ≥ 3
// ascending frequencies list[:n] (list[n] is a MaxInt32 sentinel) with
// two queues, leaves and joined nodes, always joining the two lightest
// fronts and taking the joined node first on a tie. If no leaf lies
// deeper than maxBits it sets count[l] to the number of leaves at depth
// l and returns the deepest depth; otherwise it returns 0.
//
// The nodes it removes, in order, are the fixed point of bitCounts'
// level merge (the leaves merged with the pairs of consecutive items,
// a pair first on a tie), which every level of the package-merge above
// the tree's depth lists as its lightest items; a tree no deeper than
// maxBits therefore gives the package-merge's code lengths, which
// TestBitCountsMatchesPackageMerge checks against compress/flate's.
func (d *deflater) huffmanCounts(list []int32, maxBits int, count *[16]int) int {
	n := len(list) - 1
	// removed[m] is the m-th node removed, a leaf's index or n plus a
	// joined node's; removed[2k] and removed[2k+1] are joined node k's
	// children, and node n-2 is the root.
	nodes, removed, depths := d.nodes[:n-1], d.removed[:2*n-2], d.depths[:n-1]
	leaf, joined, made := 0, 0, 0
	for m := range removed {
		var w int32
		if joined < made && nodes[joined] <= list[leaf] {
			w = nodes[joined]
			removed[m] = int16(n + joined)
			joined++
		} else {
			w = list[leaf]
			removed[m] = int16(leaf)
			leaf++
		}
		if m&1 == 0 {
			nodes[made] = w
		} else {
			nodes[made] += w
			made++
		}
	}

	depths[n-2] = 0
	deepest := 0
	for k := n - 2; k >= 0; k-- {
		depth := depths[k] + 1
		for _, c := range removed[2*k : 2*k+2] {
			if int(c) < n {
				count[depth]++
				deepest = max(deepest, int(depth))
			} else if int(depth) < maxBits {
				depths[int(c)-n] = depth
			} else {
				clear(count[:])
				return 0
			}
		}
	}
	return deepest
}

// levelInfo is the state of one level of bitCounts' package-merge.
type levelInfo struct {
	lastFreq     int32 // the frequency of the level's last node
	nextCharFreq int32 // that of the next leaf to add
	nextPairFreq int32 // that of the next pair from the level below
	needed       int32 // chains left to build on this level
}

// bitCounts sets count[l] to the number of the n ≥ 3 symbols whose
// ascending frequencies are list[:n] (list[n] is a MaxInt32 sentinel)
// that get codes of l bits, no code longer than maxBits, and returns
// the longest length it may use: maxBits, or n-1 when that is less.
func bitCounts(list []int32, maxBits int, count *[16]int) int {
	n := int32(len(list) - 1)
	top := int32(min(maxBits, int(n)-1))

	// Level 0 is bogus, there so that level 1's nextPairFreq is a
	// legitimate value that is never chosen.
	var levels [16]levelInfo
	// leafCounts[i][j] is the number of leaves left of the level j
	// ancestor of level i's rightmost node. Row i is zero past column
	// i, which lets a row be copied from the one below whole.
	var leafCounts [16][16]int32
	for level := int32(1); level <= top; level++ {
		levels[level] = levelInfo{
			lastFreq:     list[1],
			nextCharFreq: list[2],
			nextPairFreq: list[0] + list[1],
		}
		leafCounts[level][level] = 2
		if level == 1 {
			levels[level].nextPairFreq = math.MaxInt32
		}
	}

	// The top level needs 2n-2 items and has 2.
	levels[top].needed = 2*n - 4

	level := top
	for {
		l := &levels[level]
		if l.nextPairFreq == math.MaxInt32 && l.nextCharFreq == math.MaxInt32 {
			// Out of leaves and pairs: never come back to this level.
			l.needed = 0
			levels[level+1].nextPairFreq = math.MaxInt32
			level++
			continue
		}

		prevFreq := l.lastFreq
		if l.nextCharFreq < l.nextPairFreq {
			// The next node is a leaf.
			c := leafCounts[level][level] + 1
			l.lastFreq = l.nextCharFreq
			leafCounts[level][level] = c
			l.nextCharFreq = list[c]
		} else {
			// The next node is a pair from the level below, whose leaf
			// counts it takes but for its own level's.
			l.lastFreq = l.nextPairFreq
			own := leafCounts[level][level]
			leafCounts[level] = leafCounts[level-1]
			leafCounts[level][level] = own
			levels[level-1].needed = 2
		}

		if l.needed--; l.needed == 0 {
			// This level is done: pass its last pair up.
			if level == top {
				break
			}
			levels[level+1].nextPairFreq = prevFreq + l.lastFreq
			level++
		} else {
			// Replenish the levels below that were drawn from.
			for levels[level-1].needed > 0 {
				level--
			}
		}
	}

	if leafCounts[top][top] != n {
		panic("storage: deflate package-merge did not place every leaf")
	}
	counts := &leafCounts[top]
	for l := int32(1); l <= top; l++ {
		count[l] = int(counts[top-l+1] - counts[top-l])
	}
	return int(top)
}

// firstCodes returns the first code of each length 1..maxLen of the
// canonical code with count[l] codes of length l (RFC 1951 §3.2.2),
// and the code just past the last one of length maxLen: 1<<maxLen if
// the code is complete. count[0] is ignored.
func firstCodes(count *[16]int, maxLen int) (next [16]int, end int) {
	code := 0
	for l := 1; l <= maxLen; l++ {
		if l > 1 {
			code += count[l-1]
		}
		code <<= 1
		next[l] = code
	}
	return next, code + count[maxLen]
}
