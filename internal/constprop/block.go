package constprop

import "pathflow/internal/ir"

// Block is one basic block's instruction list prepared for evaluation
// under many entry environments.
//
// An instruction's lattice value depends only on the entry values of the
// block's inputs — the registers the block reads before it writes them —
// because every other register an instruction reads was written earlier
// in the same block. Evaluating under the input values alone therefore
// yields exactly the values symbolic execution under a full environment
// yields, without copying that environment.
type Block struct {
	Instrs []ir.Instr
	// Inputs lists the block's input registers in first-read order.
	// Only operands that feed an instruction's value count: Print and
	// Call read registers too, but their values are ⊥ regardless.
	Inputs []ir.Var
	// Local holds each instruction's value under local analysis: the
	// block alone, every input ⊥.
	Local []Value
	// Candidates lists, in order, the instructions that can be non-local
	// constants: pure, with a destination, and not constant under local
	// analysis. Under an entry environment, the paper's non-local
	// constants are exactly the candidates whose value is constant.
	Candidates []int
	// src locates operands A and B of instruction i at src[2i] and
	// src[2i+1]: k ≥ 0 is the value of instruction k, k < 0 is input
	// −k−1. Entries of operands the opcode does not read are unused.
	src []int32
}

// NewBlock prepares instrs for evaluation. The block keeps instrs, which
// must not change afterwards.
func NewBlock(instrs []ir.Instr) *Block {
	b := &Block{Instrs: instrs, src: make([]int32, 2*len(instrs))}
	locate := func(i int, r ir.Var) int32 {
		for j := i - 1; j >= 0; j-- {
			if instrs[j].Dst == r {
				return int32(j)
			}
		}
		for k, in := range b.Inputs {
			if in == r {
				return int32(-k - 1)
			}
		}
		b.Inputs = append(b.Inputs, r)
		return int32(-len(b.Inputs))
	}
	for i := range instrs {
		in := &instrs[i]
		switch {
		case in.Op.IsUnary():
			b.src[2*i] = locate(i, in.A)
		case in.Op.IsBinary():
			b.src[2*i] = locate(i, in.A)
			b.src[2*i+1] = locate(i, in.B)
		}
	}
	bottom := make([]Value, len(b.Inputs))
	for k := range bottom {
		bottom[k] = Value{Kind: Bottom}
	}
	b.Local = make([]Value, len(instrs))
	b.Eval(bottom, b.Local)
	for i := range instrs {
		in := &instrs[i]
		if in.Op.IsPure() && in.HasDst() && !b.Local[i].IsConst() {
			b.Candidates = append(b.Candidates, i)
		}
	}
	return b
}

// Project appends env's values at the block's inputs to dst.
func (b *Block) Project(dst []Value, env Env) []Value {
	for _, r := range b.Inputs {
		dst = append(dst, env[r])
	}
	return dst
}

// Eval writes to vals[i] the value instruction i takes when the block is
// entered with its inputs holding in (indexed like Inputs). vals must
// hold at least len(Instrs) entries.
func (b *Block) Eval(in, vals []Value) {
	operand := func(k int32) Value {
		if k >= 0 {
			return vals[k]
		}
		return in[-k-1]
	}
	for i := range b.Instrs {
		ins := &b.Instrs[i]
		var x, y Value
		switch {
		case ins.Op.IsUnary():
			x = operand(b.src[2*i])
		case ins.Op.IsBinary():
			x, y = operand(b.src[2*i]), operand(b.src[2*i+1])
		}
		vals[i] = evalOp(ins, x, y)
	}
}
