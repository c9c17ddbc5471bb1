package opt

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

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
// byte stream. v is not modified; quantize first with Quantize if lossy
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
	maxAbs := v.MaxAbs()
	levels := float64(int64(1)<<(bits-1)) - 1
	scale := 0.0
	if maxAbs > 0 {
		scale = maxAbs / levels
	}

	var hdr [headerLen]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(v)))
	binary.LittleEndian.PutUint64(hdr[4:12], math.Float64bits(scale))
	hdr[12] = byte(bits)
	buf = append(buf, hdr[:]...)

	var tmp [binary.MaxVarintLen64]byte
	i := 0
	for i < len(v) {
		var q int64
		if scale > 0 {
			q = int64(math.Round(v[i] / scale))
		}
		if q == 0 {
			run := 1
			for i+run < len(v) {
				var qn int64
				if scale > 0 {
					qn = int64(math.Round(v[i+run] / scale))
				}
				if qn != 0 {
					break
				}
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
		u, n := binary.Uvarint(body[pos:])
		if n <= 0 {
			return fmt.Errorf("opt: DecompressUpdate corrupt varint at offset %d", pos)
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
