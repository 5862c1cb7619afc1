package artifact

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"sync"
	"unsafe"

	"lam/internal/hybrid"
	"lam/internal/lamerr"
	"lam/internal/ml"
)

// lamb1: the flat binary artifact format.
//
// File layout (all integers little-endian):
//
//	offset  0  magic   [8]byte  "LAMB1\r\n\x00"
//	offset  8  u32     format version (1, 2 or 3; 3 is written)
//	offset 12  u32     payload kind (1 = regressor, 2 = hybrid)
//	offset 16  u64     payload length in bytes
//	offset 24  []byte  payload (internal/ml + internal/hybrid binary
//	                   encoding; starts 8-byte aligned, every array on
//	                   its natural alignment — see ml/binary.go). In
//	                   version 3 a model's nodes are its walk table's
//	                   16-byte records, which a load on a little-endian
//	                   host reads in place
//	trailer    u32     CRC32-C over bytes [0, 24+payloadLen)
//
// The \r\n in the magic catches text-mode line-ending mangling the way
// PNG's does; the CRC covers header and payload, so any truncation or
// bit flip fails loudly (wrapping lamerr.ErrCorruptArtifact) as a CRC
// mismatch, whatever the payload holds: Decode checks the CRC beside
// the parse, and its error wins.
var lamb1Magic = [8]byte{'L', 'A', 'M', 'B', '1', '\r', '\n', 0}

const (
	// lamb1Version1 payloads carry explicit left-child arrays in every
	// tree body; lamb1Version2 drops them (the canonical layout makes
	// left implicit, shrinking tree bodies 25%); lamb1VersionLatest (3)
	// stores each model's packed walk table, 16 bytes a node where
	// version 2 took 28. The header version equals the ml binary payload
	// version, so decode threads it straight down. New artifacts are
	// written at lamb1VersionLatest; every version decodes forever.
	lamb1Version1      = ml.BinaryVersion1
	lamb1Version2      = ml.BinaryVersion2
	lamb1VersionLatest = ml.BinaryVersionLatest
	lamb1HeaderLen     = 24
	lamb1TrailerLen    = 4

	lamb1KindRegressor uint32 = 1
	lamb1KindHybrid    uint32 = 2
)

// crcTable is the Castagnoli polynomial — hardware-accelerated on
// every platform Go targets that has SSE4.2/ARMv8 CRC instructions.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

type lamb1Codec struct{}

func (lamb1Codec) Name() string { return FormatLAMB1 }

func (lamb1Codec) Encode(w io.Writer, p *Payload) error {
	if err := p.validate(); err != nil {
		return err
	}
	// Encode the payload first: its length lives in the header and its
	// bytes under the CRC, and append-style encoding lets the whole
	// artifact be assembled in one exact-size buffer — the payload is
	// mostly one bulk copy of the walk table — and written in one call.
	kind, size := lamb1KindRegressor, ml.BinaryLen(p.Regressor)
	if p.Hybrid != nil {
		kind, size = lamb1KindHybrid, hybrid.BinaryLen(p.Hybrid)
	}
	buf := make([]byte, lamb1HeaderLen, lamb1HeaderLen+size+lamb1TrailerLen)
	copy(buf, lamb1Magic[:])
	var err error
	if p.Hybrid != nil {
		buf, err = hybrid.AppendBinary(buf, p.Hybrid)
	} else {
		buf, err = ml.AppendBinary(buf, p.Regressor)
	}
	if err != nil {
		return err
	}
	binary.LittleEndian.PutUint32(buf[8:12], lamb1VersionLatest)
	binary.LittleEndian.PutUint32(buf[12:16], kind)
	binary.LittleEndian.PutUint64(buf[16:24], uint64(len(buf)-lamb1HeaderLen))
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, crcTable))
	_, err = w.Write(buf)
	return err
}

func corrupt1(format string, args ...any) error {
	return fmt.Errorf("artifact: %w: lamb1: "+format, append([]any{lamerr.ErrCorruptArtifact}, args...)...)
}

func (lamb1Codec) Decode(data []byte, opts DecodeOptions) (*Payload, error) {
	if len(data) < lamb1HeaderLen+lamb1TrailerLen {
		return nil, corrupt1("short artifact: %d bytes", len(data))
	}
	if !bytes.Equal(data[:8], lamb1Magic[:]) {
		return nil, corrupt1("bad magic %q", data[:8])
	}
	version := binary.LittleEndian.Uint32(data[8:12])
	if version < lamb1Version1 || version > lamb1VersionLatest {
		return nil, corrupt1("unsupported format version %d (this build reads %d to %d)",
			version, lamb1Version1, lamb1VersionLatest)
	}
	kind := binary.LittleEndian.Uint32(data[12:16])
	payloadLen := binary.LittleEndian.Uint64(data[16:24])
	if payloadLen != uint64(len(data)-lamb1HeaderLen-lamb1TrailerLen) {
		return nil, corrupt1("header says %d payload bytes, file carries %d",
			payloadLen, len(data)-lamb1HeaderLen-lamb1TrailerLen)
	}
	body := data[:len(data)-lamb1TrailerLen]
	// The CRC runs beside the structural decode and is joined on every
	// path out, a panic included: data may be a mapping that only the
	// caller's hold on its owner keeps mapped, and that hold ends when
	// Decode returns. A mismatch wins over whatever the decode said.
	var got uint32
	var crc sync.WaitGroup
	crc.Add(1)
	go func() {
		defer crc.Done()
		got = crc32.Checksum(body, crcTable)
	}()
	p, err := func() (*Payload, error) {
		defer crc.Wait()
		return decodeLamb1Payload(body, version, kind, opts)
	}()
	if want := lamb1TrailerCRC(data); got != want {
		return nil, corrupt1("CRC32C mismatch: computed %08x, trailer %08x", got, want)
	}
	return p, err
}

// decodeLamb1Payload decodes the payload of body, a lamb1 artifact
// without its trailer whose header has been checked.
func decodeLamb1Payload(body []byte, version, kind uint32, opts DecodeOptions) (*Payload, error) {
	payload := alignedPayload(body[lamb1HeaderLen:])

	var kindName string
	switch kind {
	case lamb1KindRegressor:
		kindName = KindRegressor
	case lamb1KindHybrid:
		kindName = KindHybrid
	default:
		return nil, corrupt1("unknown payload kind %d", kind)
	}
	if opts.Kind != "" && opts.Kind != kindName {
		return nil, corrupt1("artifact carries a %s payload, metadata expects %s", kindName, opts.Kind)
	}
	switch kind {
	case lamb1KindRegressor:
		reg, err := ml.DecodeBinaryVersion(payload, int(version), opts.Owner)
		if err != nil {
			return nil, fmt.Errorf("artifact: lamb1: %w", err)
		}
		return &Payload{Regressor: reg}, nil
	default:
		if opts.Analytical == nil {
			return nil, fmt.Errorf("artifact: decoding a hybrid payload requires the analytical model")
		}
		hy, err := hybrid.DecodeBinaryVersion(payload, opts.Analytical, int(version), opts.Owner)
		if err != nil {
			return nil, fmt.Errorf("artifact: lamb1: %w", err)
		}
		return &Payload{Hybrid: hy}, nil
	}
}

func (lamb1Codec) Sniff(prefix []byte) bool {
	return len(prefix) >= 8 && bytes.Equal(prefix[:8], lamb1Magic[:])
}

// lamb1TrailerCRC reads the stored trailer checksum. Callers guarantee
// len(data) covers header+trailer.
func lamb1TrailerCRC(data []byte) uint32 {
	return binary.LittleEndian.Uint32(data[len(data)-lamb1TrailerLen:])
}

// lamb1FormatVersion reads the header version of an already-decoded
// artifact (callers guarantee the header is present and valid).
func lamb1FormatVersion(data []byte) int {
	return int(binary.LittleEndian.Uint32(data[8:12]))
}

// alignedPayload returns the payload bytes at 8-byte base alignment so
// the decoder's slice-casts land on natural boundaries. The header is
// 24 bytes, so when the file buffer itself is 8-byte aligned — which a
// file mapping (page-aligned) and every Go heap allocation of this size
// are — the payload alias is returned as-is, zero-copy. A misaligned
// buffer (a caller slicing into the middle of something) falls back to
// one bulk copy into uint64-backed storage, which a version-3 model
// then reads as its walk table.
func alignedPayload(payload []byte) []byte {
	if len(payload) == 0 || uintptr(unsafe.Pointer(&payload[0]))%8 == 0 {
		return payload
	}
	backing := make([]uint64, (len(payload)+7)/8)
	aligned := unsafe.Slice((*byte)(unsafe.Pointer(&backing[0])), len(payload))
	copy(aligned, payload)
	return aligned
}
