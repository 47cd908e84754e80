package ckptfmt

import (
	"encoding/binary"
	"fmt"

	"flor.dev/flor/internal/codec"
)

// LZ4 block codec, implemented here so the frame format stays dependency-
// free. The encoding is the classic LZ4 block format: a stream of sequences,
// each a token byte (high nibble = literal length, low nibble = match length
// minus 4, value 15 meaning "extended by 255-run bytes"), the literals, a
// 2-byte little-endian match offset, and the match-length extension. The
// final sequence carries literals only. Unlike DEFLATE there is no entropy
// stage: compression is a single hash-table pass and decompression is pure
// byte copying. Stores no longer write the style; the decoder reads the LZ4
// frames older builds wrote, and the encoder produces such frames for tests
// and codec measurements.
//
// The encoder is deterministic: one fixed hash table, greedy matching, no
// randomized or time-dependent choices — the same raw bytes always produce
// the same frame bytes.
const (
	lz4MinMatch = 4
	lz4HashLog  = 14
	// lz4MFLimit: matches must not start within the last 12 bytes, and may
	// not extend into the last 5 (the spec's end-of-block conditions, kept so
	// any compliant decoder accepts our blocks).
	lz4MFLimit = 12
	lz4LastLit = 5
)

func lz4Hash(u uint32) uint32 {
	return (u * 2654435761) >> (32 - lz4HashLog)
}

// lz4CompressBound returns the maximum encoded size of an n-byte block
// (incompressible input expands by one token per 255-literal run).
func lz4CompressBound(n int) int {
	return n + n/255 + 16
}

// lz4AppendLen appends an LZ4 length extension: runs of 255 plus a final
// remainder byte.
func lz4AppendLen(dst []byte, n int) []byte {
	for n >= 255 {
		dst = append(dst, 255)
		n -= 255
	}
	return append(dst, byte(n))
}

// lz4AppendSeq appends one sequence: literals lit, then (unless this is the
// trailing literal-only sequence, offset == 0) a match of matchLen bytes at
// the given backward offset.
func lz4AppendSeq(dst, lit []byte, offset, matchLen int) []byte {
	var token byte
	litLen := len(lit)
	if litLen >= 15 {
		token = 0xf0
	} else {
		token = byte(litLen) << 4
	}
	if offset == 0 {
		dst = append(dst, token)
		if litLen >= 15 {
			dst = lz4AppendLen(dst, litLen-15)
		}
		return append(dst, lit...)
	}
	ml := matchLen - lz4MinMatch
	if ml >= 15 {
		token |= 0x0f
	} else {
		token |= byte(ml)
	}
	dst = append(dst, token)
	if litLen >= 15 {
		dst = lz4AppendLen(dst, litLen-15)
	}
	dst = append(dst, lit...)
	dst = append(dst, byte(offset), byte(offset>>8))
	if ml >= 15 {
		dst = lz4AppendLen(dst, ml-15)
	}
	return dst
}

// lz4Compress appends the LZ4 block encoding of src to dst and returns the
// extended slice.
func lz4Compress(src, dst []byte) []byte {
	n := len(src)
	if n < lz4MFLimit+1 {
		return lz4AppendSeq(dst, src, 0, 0)
	}
	var table [1 << lz4HashLog]int32 // position+1 of the last occurrence of a 4-byte word; 0 = empty
	anchor := 0
	limit := n - lz4MFLimit
	matchLimit := n - lz4LastLit
	i := 0
	for i < limit {
		w := binary.LittleEndian.Uint32(src[i:])
		h := lz4Hash(w)
		cand := int(table[h]) - 1
		table[h] = int32(i + 1)
		if cand < 0 || i-cand > 0xffff || binary.LittleEndian.Uint32(src[cand:]) != w {
			i++
			continue
		}
		// Extend the match forward, staying clear of the last-literals zone.
		m := i + lz4MinMatch
		c := cand + lz4MinMatch
		for m < matchLimit && src[m] == src[c] {
			m++
			c++
		}
		dst = lz4AppendSeq(dst, src[anchor:i], i-cand, m-i)
		i = m
		anchor = m
	}
	return lz4AppendSeq(dst, src[anchor:], 0, 0)
}

// lz4Decompress decodes an LZ4 block into dst, which must be exactly the
// block's decoded length. Every malformed shape — truncated sequence, offset
// before the start, output over- or underrun — surfaces codec.ErrCorrupt.
func lz4Decompress(src, dst []byte) error {
	si, di := 0, 0
	corrupt := func(what string) error {
		return fmt.Errorf("%w: lz4 block: %s (src %d/%d, dst %d/%d)", codec.ErrCorrupt, what, si, len(src), di, len(dst))
	}
	readLen := func(base int) (int, error) {
		n := base
		if base == 15 {
			for {
				if si >= len(src) {
					return 0, corrupt("truncated length run")
				}
				b := src[si]
				si++
				n += int(b)
				if b != 255 {
					break
				}
			}
		}
		return n, nil
	}
	for {
		if si >= len(src) {
			return corrupt("missing token")
		}
		token := src[si]
		si++
		litLen, err := readLen(int(token >> 4))
		if err != nil {
			return err
		}
		if litLen > len(src)-si || litLen > len(dst)-di {
			return corrupt("literal overrun")
		}
		copy(dst[di:], src[si:si+litLen])
		si += litLen
		di += litLen
		if si == len(src) {
			// Trailing literal-only sequence: the block must land exactly.
			if di != len(dst) {
				return corrupt("short block")
			}
			return nil
		}
		if len(src)-si < 2 {
			return corrupt("truncated offset")
		}
		offset := int(src[si]) | int(src[si+1])<<8
		si += 2
		if offset == 0 || offset > di {
			return corrupt("match offset out of range")
		}
		matchLen, err := readLen(int(token & 0x0f))
		if err != nil {
			return err
		}
		matchLen += lz4MinMatch
		if matchLen > len(dst)-di {
			return corrupt("match overrun")
		}
		// Byte-wise copy: overlapping matches (offset < matchLen) replicate
		// the run, which is the format's RLE mode.
		m := di - offset
		for k := 0; k < matchLen; k++ {
			dst[di+k] = dst[m+k]
		}
		di += matchLen
	}
}
