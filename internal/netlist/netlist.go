// Package netlist provides a small structural netlist of LUT-6 primitives:
// the gate-level counterpart of the behavioral circuit models in the fpga
// package. Circuits are built bottom-up (inputs, then LUTs in topological
// order), evaluated by forward propagation, and counted — giving measured
// LUT budgets to compare against the paper's Eq. 15 estimates, and a
// structural artifact the hdl package can emit as Verilog.
package netlist

import (
	"fmt"

	"privehd/internal/fpga"
)

// NodeID references a primary input (0 ≤ id < NumInputs) or a LUT node
// (NumInputs ≤ id).
type NodeID int

type lutNode struct {
	name  string
	lut   fpga.LUT6
	fanin []NodeID
}

// Netlist is a combinational LUT-6 circuit. The zero value is unusable;
// create one with New.
type Netlist struct {
	name       string
	inputNames []string
	nodes      []lutNode
	outputs    []NodeID
}

// New returns an empty netlist with the given module name.
func New(name string) *Netlist {
	return &Netlist{name: name}
}

// Name returns the module name.
func (n *Netlist) Name() string { return n.name }

// AddInput declares one primary input and returns its NodeID. Inputs must
// be declared before any LUT that uses them.
func (n *Netlist) AddInput(name string) NodeID {
	if len(n.nodes) > 0 {
		panic("netlist: inputs must be declared before LUTs")
	}
	n.inputNames = append(n.inputNames, name)
	return NodeID(len(n.inputNames) - 1)
}

// AddInputs declares `count` inputs named prefix0..prefixN and returns
// their IDs.
func (n *Netlist) AddInputs(prefix string, count int) []NodeID {
	ids := make([]NodeID, count)
	for i := range ids {
		ids[i] = n.AddInput(fmt.Sprintf("%s%d", prefix, i))
	}
	return ids
}

// AddLUT appends a LUT node fed by the given fanin IDs (≤ 6, all of which
// must already exist) and returns its NodeID.
func (n *Netlist) AddLUT(name string, lut fpga.LUT6, fanin ...NodeID) NodeID {
	if len(fanin) > 6 {
		panic(fmt.Sprintf("netlist: node %s has %d fanins", name, len(fanin)))
	}
	next := NodeID(len(n.inputNames) + len(n.nodes))
	for _, f := range fanin {
		if f < 0 || f >= next {
			panic(fmt.Sprintf("netlist: node %s references undefined node %d", name, f))
		}
	}
	n.nodes = append(n.nodes, lutNode{name: name, lut: lut, fanin: append([]NodeID(nil), fanin...)})
	return next
}

// MarkOutput appends id to the circuit's output list.
func (n *Netlist) MarkOutput(id NodeID) {
	if id < 0 || int(id) >= len(n.inputNames)+len(n.nodes) {
		panic(fmt.Sprintf("netlist: output references undefined node %d", id))
	}
	n.outputs = append(n.outputs, id)
}

// NumInputs returns the primary input count.
func (n *Netlist) NumInputs() int { return len(n.inputNames) }

// NumLUTs returns the LUT node count — the resource metric of Eq. 15.
func (n *Netlist) NumLUTs() int { return len(n.nodes) }

// Depth returns the maximum logic depth in LUT levels (inputs are level 0).
func (n *Netlist) Depth() int {
	level := make([]int, len(n.inputNames)+len(n.nodes))
	max := 0
	for i, node := range n.nodes {
		l := 0
		for _, f := range node.fanin {
			if level[f] > l {
				l = level[f]
			}
		}
		l++
		level[len(n.inputNames)+i] = l
		if l > max {
			max = l
		}
	}
	return max
}

// Eval propagates the input values through the circuit and returns the
// output values in MarkOutput order. len(inputs) must equal NumInputs.
func (n *Netlist) Eval(inputs []bool) []bool {
	if len(inputs) != len(n.inputNames) {
		panic(fmt.Sprintf("netlist: Eval got %d inputs, want %d", len(inputs), len(n.inputNames)))
	}
	values := make([]bool, len(n.inputNames)+len(n.nodes))
	copy(values, inputs)
	fan := make([]bool, 6)
	for i, node := range n.nodes {
		fan = fan[:len(node.fanin)]
		for k, f := range node.fanin {
			fan[k] = values[f]
		}
		values[len(n.inputNames)+i] = node.lut.Eval(fan...)
	}
	out := make([]bool, len(n.outputs))
	for i, id := range n.outputs {
		out[i] = values[id]
	}
	return out
}

// Visit walks the netlist in definition order, calling input for each
// primary input, lut for each LUT node, and output for each marked output.
// It is the read-only traversal used by the Verilog emitter.
func (n *Netlist) Visit(
	input func(i int, name string),
	lut func(i int, name string, table uint64, fanin []NodeID),
	output func(i int, id NodeID),
) {
	for i, name := range n.inputNames {
		input(i, name)
	}
	for i, node := range n.nodes {
		lut(i, node.name, node.lut.Table, node.fanin)
	}
	for i, id := range n.outputs {
		output(i, id)
	}
}
