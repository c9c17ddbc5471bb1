package opt

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"

	"floatfl/internal/tensor"
)

// The wire codec serializes a quantized model update losslessly: values are
// mapped onto the quantization grid, zigzag-varint encoded, and runs of
// zeros (abundant after pruning) are run-length encoded. It exists both as
// the transport format of the simulator and as a ground truth check that a
// technique's CommFactor approximates what the bytes on the wire actually
// do (see opt tests and the Fig. 4/5 benches).

// headerLen is the fixed prefix of an encoded update: uint32 element
// count, float64 scale, one byte of bit width.
const headerLen = 13

// CompressUpdate encodes v as a b-bit quantized, zero-run-compressed
// byte stream. v is not modified; quantize first with QuantizeGrid if lossy
// quantization is intended — CompressUpdate itself snaps to the grid
// deterministically (round to nearest) to remain self-contained.
func CompressUpdate(v tensor.Vector, bits int) ([]byte, error) {
	return AppendCompressUpdate(make([]byte, 0, len(v)/2+16), v, bits)
}

// AppendCompressUpdate is CompressUpdate appending to buf, for callers
// that keep the output buffer across updates.
func AppendCompressUpdate(buf []byte, v tensor.Vector, bits int) ([]byte, error) {
	if bits < 2 || bits > 32 {
		return buf, fmt.Errorf("opt: CompressUpdate bits %d out of [2,32]", bits)
	}
	scale := wireScale(v.MaxAbs(), bits)
	buf = appendHeader(buf, len(v), scale, bits)

	var tmp [binary.MaxVarintLen64]byte
	i := 0
	for i < len(v) {
		q := wireLevel(v[i], scale)
		if q == 0 {
			run := 1
			for i+run < len(v) && wireLevel(v[i+run], scale) == 0 {
				run++
			}
			n := binary.PutUvarint(tmp[:], 0) // zero marker
			buf = append(buf, tmp[:n]...)
			n = binary.PutUvarint(tmp[:], uint64(run))
			buf = append(buf, tmp[:n]...)
			i += run
			continue
		}
		n := binary.PutUvarint(tmp[:], zigzag(q))
		buf = append(buf, tmp[:n]...)
		i++
	}
	return buf, nil
}

// AppendCompressGrid is AppendCompressUpdate for an update g says is on an
// integer grid (QuantizeGrid's result for v), and gives the same bytes. A
// narrow grid is encoded without a division: the varint of each level k is
// computed once, by AppendCompressUpdate's formula on the value
// float64(k)*g.Step that v holds, and each entry is one table load and one
// 8-byte store. Any other g — none recorded, or a grid whose levels would
// not fit the table — takes AppendCompressUpdate.
func AppendCompressGrid(buf []byte, v tensor.Vector, g Grid, bits int) ([]byte, error) {
	if g.Codes == nil || len(g.Codes) != len(v) || g.KMax > gridMaxK || bits < 2 || bits > 32 {
		return AppendCompressUpdate(buf, v, bits)
	}
	// v's largest magnitude is KMax·Step exactly: |k|·Step grows with |k|.
	scale := wireScale(float64(g.KMax)*g.Step, bits)
	// Level k's word sits at (k+gridTable/2)&(gridTable-1); 0 marks a level
	// the wire rounds to zero. Every other level's varint fits a word: a
	// scale that is not zero is at least half of maxAbs over the wire's
	// level count, so |q| stays below 2³³.
	var table [gridTable]uint64
	for k := -g.KMax; k <= g.KMax; k++ {
		if q := wireLevel(float64(k)*g.Step, scale); q != 0 {
			table[(k+gridTable/2)&(gridTable-1)] = varintWord(zigzag(q))
		}
	}
	buf = appendHeader(buf, len(v), scale, bits)
	out, pos := buf[:cap(buf)], len(buf)
	codes := g.Codes
	for i := 0; i < len(codes); {
		w := table[(int(codes[i])+gridTable/2)&(gridTable-1)]
		if w == 0 {
			run := 1
			for i+run < len(codes) && table[(int(codes[i+run])+gridTable/2)&(gridTable-1)] == 0 {
				run++
			}
			out, pos = putWord(out, pos, 1<<56) // the zero-run marker, one 0 byte
			out, pos = putWord(out, pos, varintWord(uint64(run)))
			i += run
			continue
		}
		out, pos = putWord(out, pos, w)
		i++
	}
	return out[:pos], nil
}

// gridTable is the size of AppendCompressGrid's level table, a power of
// two so that a masked index needs no bounds check; gridMaxK is the
// largest |k| it holds.
const (
	gridTable = 512
	gridMaxK  = gridTable/2 - 1
)

// wireScale is the header scale of an update whose largest magnitude is
// maxAbs: one step of the b-bit wire grid, or 0 for an all-zero update.
func wireScale(maxAbs float64, bits int) float64 {
	if maxAbs > 0 {
		return maxAbs / (float64(int64(1)<<(bits-1)) - 1)
	}
	return 0
}

// wireLevel is x's level on the wire grid of step scale: the one formula
// both encoders use, which is what makes their bytes the same.
func wireLevel(x, scale float64) int64 {
	if scale > 0 {
		return int64(math.Round(x / scale))
	}
	return 0
}

// appendHeader appends the header of an update to buf.
func appendHeader(buf []byte, count int, scale float64, bits int) []byte {
	var hdr [headerLen]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(count))
	binary.LittleEndian.PutUint64(hdr[4:12], math.Float64bits(scale))
	hdr[12] = byte(bits)
	return append(buf, hdr[:]...)
}

// varintWord packs the uvarint bytes of u < 2⁴⁹ into a word's low bytes,
// little-endian, and their count, one to seven, into its top byte.
func varintWord(u uint64) uint64 {
	var w, n uint64
	for ; u >= 0x80; n++ {
		w |= (u&0x7f | 0x80) << (8 * n)
		u >>= 7
	}
	return w | u<<(8*n) | (n+1)<<56
}

// putWord stores w whole at out[pos:] with one unaligned 8-byte store and
// returns the position past its varint: the bytes past that are scratch
// the next store overwrites or the final reslice drops. out, all of its
// buffer's capacity, grows when fewer than eight bytes are left.
func putWord(out []byte, pos int, w uint64) ([]byte, int) {
	if len(out)-pos < 8 {
		out = slices.Grow(out[:pos], pos+64)
		out = out[:cap(out)]
	}
	binary.LittleEndian.PutUint64(out[pos:], w)
	return out, pos + int(w>>56)
}

// MaxDecodedLen bounds the element count DecompressUpdate will allocate
// for — a hostile header must not be able to demand gigabytes. 2^24
// scalars (128 MiB as float64) is far above any model in the registry.
const MaxDecodedLen = 1 << 24

// ErrLengthMismatch reports an encoded update whose declared element count
// is not the length its decoder was told to expect.
var ErrLengthMismatch = errors.New("opt: DecompressUpdate length mismatch")

// DecompressUpdate reverses CompressUpdate. The result contains the
// grid-snapped values (lossless with respect to the encoded stream). The
// vector is sized by the stream's own header (up to MaxDecodedLen); a
// caller that knows the length it expects decodes with
// DecompressUpdateInto, which allocates nothing.
func DecompressUpdate(data []byte) (tensor.Vector, error) {
	count, err := declaredLen(data)
	if err != nil {
		return nil, err
	}
	if count > MaxDecodedLen {
		return nil, fmt.Errorf("opt: DecompressUpdate declared length %d exceeds cap %d",
			count, MaxDecodedLen)
	}
	out := tensor.NewVector(count)
	if err := DecompressUpdateInto(out, data); err != nil {
		return nil, err
	}
	return out, nil
}

// DecompressUpdateInto decodes data into dst, overwriting every element.
// A stream that declares any length but len(dst) is rejected with
// ErrLengthMismatch before its body is read, so an untrusted header never
// sizes an allocation. On error dst holds garbage.
func DecompressUpdateInto(dst tensor.Vector, data []byte) error {
	count, err := declaredLen(data)
	if err != nil {
		return err
	}
	if count != len(dst) {
		return fmt.Errorf("%w: stream declares %d elements, want %d", ErrLengthMismatch, count, len(dst))
	}
	scale := math.Float64frombits(binary.LittleEndian.Uint64(data[4:12]))
	body := data[headerLen:]

	pos, i := 0, 0
	for i < count {
		var u uint64
		n := 0
		if len(body)-pos >= 8 {
			u, n = shortUvarint(binary.LittleEndian.Uint64(body[pos:]))
		}
		if n == 0 {
			if u, n = binary.Uvarint(body[pos:]); n <= 0 {
				return fmt.Errorf("opt: DecompressUpdate corrupt varint at offset %d", pos)
			}
		}
		pos += n
		if u == 0 { // zero run
			run, n2 := binary.Uvarint(body[pos:])
			if n2 <= 0 || run == 0 {
				return fmt.Errorf("opt: DecompressUpdate corrupt zero run at offset %d", pos)
			}
			pos += n2
			// Compared unsigned: a run past 2^63 must not wrap negative on
			// its way to an int.
			if run > uint64(count-i) {
				return fmt.Errorf("opt: DecompressUpdate zero run overflows payload")
			}
			clear(dst[i : i+int(run)])
			i += int(run)
			continue
		}
		dst[i] = float64(unzigzag(u)) * scale
		i++
	}
	return nil
}

// shortUvarint decodes the varint that starts the little-endian word w if
// it is at most three bytes long — every value of a wire grid of 20 bits or
// fewer — and returns n == 0 if it is longer. It branches on the length: an
// update's varints mostly share one length, so the branch predicts well
// and the next load need not wait for this one. With its n == 0 answered
// by binary.Uvarint it gives binary.Uvarint's value and length.
func shortUvarint(w uint64) (uint64, int) {
	switch {
	case w&0x80 == 0:
		return w & 0x7f, 1
	case w&0x8000 == 0:
		return w&0x7f | w>>1&(0x7f<<7), 2
	case w&0x800000 == 0:
		return w&0x7f | w>>1&(0x7f<<7) | w>>2&(0x7f<<14), 3
	}
	return 0, 0
}

// declaredLen reads the element count out of an encoded update's header.
func declaredLen(data []byte) (int, error) {
	if len(data) < headerLen {
		return 0, fmt.Errorf("opt: DecompressUpdate short header (%d bytes)", len(data))
	}
	return int(binary.LittleEndian.Uint32(data[0:4])), nil
}

// zigzag maps signed integers onto unsigned so small magnitudes stay small.
// Values are offset by 1 so that 0 can never collide with the zero-run
// marker (a true zero is always emitted as a run).
func zigzag(x int64) uint64 {
	u := uint64((x << 1) ^ (x >> 63))
	return u + 1
}

func unzigzag(u uint64) int64 {
	u--
	return int64(u>>1) ^ -int64(u&1)
}
