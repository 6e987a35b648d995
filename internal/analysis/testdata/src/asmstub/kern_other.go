//go:build !amd64

package asmstubtest

import "unsafe"

func sum8(p *int32) int32 {
	var s int32
	for _, v := range (*[8]int32)(unsafe.Pointer(p)) {
		s += v
	}
	return s
}

func sumEscaping(p *int32) int32 { return sum8(p) }
