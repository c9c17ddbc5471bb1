package opt

import (
	"encoding/binary"
	"fmt"
	"math"

	"floatfl/internal/tensor"
)

// oracleAppendCompressUpdate and oracleDecompressUpdateInto are the codec
// as it was before the encoder wrote each varint with one word store, the
// grid path took quantized updates, and the decoder read short varints
// from one load: the bodies verbatim, a PutUvarint and an append per
// varint and a binary.Uvarint per read. The fuzz targets hold the codec to
// them byte for byte and bit for bit.

func oracleAppendCompressUpdate(buf []byte, v tensor.Vector, bits int) ([]byte, error) {
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

func oracleDecompressUpdateInto(dst tensor.Vector, data []byte) error {
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
