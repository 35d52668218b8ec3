package router

import (
	"fmt"

	"repro/internal/arch"
	"repro/internal/circuit"
)

// WeaveSingleQubitGates merges the original circuit's single-qubit gates
// into a routed skeleton. The skeleton must contain exactly the original
// two-qubit gates in some dependency-valid order (per-qubit order
// preserved) plus inserted SWAP gates. Every QLS tool in this repository
// routes only the two-qubit skeleton and then weaves the single-qubit
// gates back in with this helper.
//
// A single-qubit gate is emitted as soon as every original gate that
// precedes it on its qubit has been emitted, which preserves each qubit's
// original gate sequence exactly.
func WeaveSingleQubitGates(orig, skeleton *circuit.Circuit) (*circuit.Circuit, error) {
	if skeleton.NumQubits != orig.NumQubits {
		return nil, fmt.Errorf("router: weave qubit count mismatch: %d vs %d", skeleton.NumQubits, orig.NumQubits)
	}
	n := orig.NumQubits
	// Per-qubit queues over ALL original gates, as one CSR array: qubit
	// q's gate indices, in circuit order, are queue[start[q]:start[q+1]],
	// and heads[q] is the position of its next pending gate.
	start := make([]int, n+1)
	for _, g := range orig.Gates {
		start[g.Q0+1]++
		if g.TwoQubit() {
			start[g.Q1+1]++
		}
	}
	for q := 0; q < n; q++ {
		start[q+1] += start[q]
	}
	queue := make([]int32, start[n])
	heads := make([]int, n)
	copy(heads, start)
	for idx, g := range orig.Gates {
		queue[heads[g.Q0]] = int32(idx)
		heads[g.Q0]++
		if g.TwoQubit() {
			queue[heads[g.Q1]] = int32(idx)
			heads[g.Q1]++
		}
	}
	copy(heads, start)

	swaps := 0
	for _, g := range skeleton.Gates {
		if g.Kind == circuit.Swap {
			swaps++
		}
	}
	out := circuit.New(n)
	out.Gates = make([]circuit.Gate, 0, len(orig.Gates)+swaps)
	emit1qChain := func(q int) {
		for heads[q] < start[q+1] {
			g := orig.Gates[queue[heads[q]]]
			if g.TwoQubit() {
				return
			}
			out.MustAppend(g)
			heads[q]++
		}
	}
	for q := 0; q < n; q++ {
		emit1qChain(q)
	}
	for i, g := range skeleton.Gates {
		if g.Kind == circuit.Swap {
			out.MustAppend(g)
			continue
		}
		if !g.TwoQubit() {
			return nil, fmt.Errorf("router: skeleton gate %d (%v) is single-qubit; weave expects a 2q+SWAP skeleton", i, g)
		}
		// The head of both queues must be this very gate.
		for _, q := range []int{g.Q0, g.Q1} {
			if heads[q] >= start[q+1] {
				return nil, fmt.Errorf("router: skeleton gate %d (%v): no pending original gate on q%d", i, g, q)
			}
			w := orig.Gates[queue[heads[q]]]
			if w.Kind != g.Kind || w.Q0 != g.Q0 || w.Q1 != g.Q1 {
				return nil, fmt.Errorf("router: skeleton gate %d (%v) does not match q%d's next original gate (%v)", i, g, q, w)
			}
		}
		out.MustAppend(g)
		heads[g.Q0]++
		heads[g.Q1]++
		emit1qChain(g.Q0)
		emit1qChain(g.Q1)
	}
	for q := 0; q < n; q++ {
		if heads[q] != start[q+1] {
			return nil, fmt.Errorf("router: weave left %d original gates pending on q%d", start[q+1]-heads[q], q)
		}
	}
	return out, nil
}

// TwoQubitSkeleton returns a copy of the circuit containing only its
// two-qubit gates, which is what the routing engines operate on.
func TwoQubitSkeleton(c *circuit.Circuit) *circuit.Circuit {
	out := circuit.New(c.NumQubits)
	for _, g := range c.Gates {
		if g.TwoQubit() {
			out.MustAppend(g)
		}
	}
	return out
}

// PadToDevice widens the circuit's qubit register to the device size by
// appending ancilla program qubits (no gates touch them). Routers pad
// before routing so that every physical qubit has an occupant and SWAPs
// through otherwise-empty locations stay expressible; on QUBIKOS
// benchmarks |Q| already equals |P| and this is the identity.
func PadToDevice(c *circuit.Circuit, dev *arch.Device) *circuit.Circuit {
	if c.NumQubits >= dev.NumQubits() {
		return c
	}
	out := circuit.New(dev.NumQubits())
	out.Gates = append(out.Gates, c.Gates...)
	return out
}
