package gstore

import (
	"encoding/binary"
	"unsafe"
)

// nativeLittleEndian reports whether the host stores integers
// little-endian, the precondition for writing sections from their
// arrays' own bytes and for aliasing them as typed slices on read.
var nativeLittleEndian = func() bool {
	var x uint16 = 1
	return binary.LittleEndian.Uint16((*[2]byte)(unsafe.Pointer(&x))[:]) == 1
}()

// word is the element types of the snapshot sections.
type word interface {
	int64 | uint64 | float64 | uint32
}

// sizeOf is T's size in bytes.
func sizeOf[T word]() int {
	var zero T
	return int(unsafe.Sizeof(zero))
}

// rawBytes is s's own memory as bytes, in the host's byte order.
func rawBytes[T word](s []T) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(s))), len(s)*sizeOf[T]())
}

// leBytes returns s as little-endian bytes: s's own memory on a
// little-endian host, an encoded copy on any other.
func leBytes[T word](s []T) []byte {
	raw := rawBytes(s)
	if nativeLittleEndian {
		return raw
	}
	out := make([]byte, len(raw))
	swapWords(out, raw, sizeOf[T]())
	return out
}

// fromLE returns the little-endian bytes b as a []T: an alias of b when
// the host is little-endian and b is aligned for T, a decoded copy
// otherwise. len(b) must be a multiple of T's size.
func fromLE[T word](b []byte) []T {
	var zero T
	if p := unsafe.Pointer(unsafe.SliceData(b)); nativeLittleEndian && len(b) > 0 && uintptr(p)%unsafe.Alignof(zero) == 0 {
		return unsafe.Slice((*T)(p), len(b)/sizeOf[T]())
	}
	out := make([]T, len(b)/sizeOf[T]())
	swapWords(rawBytes(out), b, sizeOf[T]())
	return out
}

// swapWords copies src's size-byte words to dst, converting each
// between little-endian and the host's byte order (the same conversion
// either way round).
func swapWords(dst, src []byte, size int) {
	for i := 0; i+size <= len(src); i += size {
		if size == 8 {
			binary.NativeEndian.PutUint64(dst[i:], binary.LittleEndian.Uint64(src[i:]))
		} else {
			binary.NativeEndian.PutUint32(dst[i:], binary.LittleEndian.Uint32(src[i:]))
		}
	}
}
