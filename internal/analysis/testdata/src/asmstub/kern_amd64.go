package asmstubtest

// sum8 returns p[0] + … + p[7].
//
//go:noescape
func sum8(p *int32) int32

// sumEscaping is sum8 declared without //go:noescape.
func sumEscaping(p *int32) int32
