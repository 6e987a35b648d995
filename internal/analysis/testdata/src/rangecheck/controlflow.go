package rangechecktest

// The functions below pin the engine's control-flow transfer: state
// leaving a switch or select through continue, break or fallthrough
// must reach its real target, or a wrap behind it goes unreported.

// accumulate is the control: a plain loop accumulation wraps.
func accumulate(n int) int16 {
	var acc int16
	for i := 0; i < n; i++ {
		acc += 1000 // want "int16 addition may wrap"
	}
	return acc
}

// continueInSwitch reaches the loop back-edge only through a continue
// inside a switch: an unlabeled continue targets the innermost loop,
// not the switch.
func continueInSwitch(n int) int16 {
	var acc int16
	for i := 0; i < n; i++ {
		switch {
		case i%2 == 0:
			acc += 1000 // want "int16 addition may wrap"
			continue
		}
	}
	return acc
}

// continueInTypeSwitch is the same shape through a type switch.
func continueInTypeSwitch(vs []any) int16 {
	var acc int16
	for _, v := range vs {
		switch v.(type) {
		case int:
			acc += 1000 // want "int16 addition may wrap"
			continue
		}
	}
	return acc
}

// continueInSelect is the same shape through a select.
func continueInSelect(ch chan int, n int) int16 {
	var acc int16
	for i := 0; i < n; i++ {
		select {
		case <-ch:
			acc += 1000 // want "int16 addition may wrap"
			continue
		default:
		}
	}
	return acc
}

// labeledContinue leaves an inner loop for the outer one's back-edge.
func labeledContinue(n int) int16 {
	var acc int16
outer:
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			acc += 1000 // want "int16 addition may wrap"
			continue outer
		}
	}
	return acc
}

// fallthroughCarries: the env before a fallthrough flows into the next
// case body, where 30000 + 3000 wraps.
func fallthroughCarries(n int) int16 {
	var acc int16
	switch {
	case n > 0:
		acc = 30000
		fallthrough
	case n < 100:
		acc += 3000 // want "int16 addition may wrap"
	}
	return acc
}

// breakLeavesSwitchOnly: a break inside a switch leaves the switch, and
// the clamp after it still bounds the sum, so nothing fires.
func breakLeavesSwitchOnly(xs []int16) int16 {
	var acc int16
	for _, x := range xs {
		switch {
		case x < 0:
			break
		default:
			if acc < 100 && x < 100 {
				acc += x
			}
		}
	}
	return acc
}
