package kernel

import "pathflow/internal/dataflow"

// Bits is a packed bitset arena: rows of fixed width Words 64-bit
// words, stored contiguously. Set-lattice domains (liveness, available
// expressions) keep every fact as one row; union and intersection are
// straight word loops over the backing slice.
type Bits struct {
	Words int
	w     []uint64
}

// NewBits returns an arena whose rows hold nbits bits each.
func NewBits(nbits int) *Bits { return &Bits{Words: (nbits + 63) / 64} }

// PackBits packs boxed bit-set facts into an arena of nbits-bit rows,
// fact r into row r; a nil fact leaves its row empty.
func PackBits[S ~[]uint64](facts []dataflow.Fact, nbits int) *Bits {
	b := NewBits(nbits)
	b.Grow(len(facts))
	for r, f := range facts {
		if f != nil {
			copy(b.Row(r), f.(S))
		}
	}
	return b
}

// Grow ensures the arena holds at least rows rows.
func (b *Bits) Grow(rows int) {
	if need := rows * b.Words; len(b.w) < need {
		b.w = make([]uint64, need)
	}
}

// Trim drops every row from rows on: a solved client keeps the
// per-node rows, not the solver's scratch rows after them.
func (b *Bits) Trim(rows int) { b.w = b.w[: rows*b.Words : rows*b.Words] }

// Row returns row r's words.
func (b *Bits) Row(r int) []uint64 {
	o := r * b.Words
	return b.w[o : o+b.Words : o+b.Words]
}

// Clear zeroes row r.
func (b *Bits) Clear(r int) {
	row := b.Row(r)
	for i := range row {
		row[i] = 0
	}
}

// Copy overwrites row dst with row src.
func (b *Bits) Copy(dst, src int) {
	copy(b.Row(dst), b.Row(src))
}

// Or unions row src into row dst and reports change.
func (b *Bits) Or(dst, src int) bool {
	d, s := b.Row(dst), b.Row(src)
	changed := false
	for i := range d {
		if n := d[i] | s[i]; n != d[i] {
			d[i] = n
			changed = true
		}
	}
	return changed
}

// And intersects row src into row dst and reports change.
func (b *Bits) And(dst, src int) bool {
	d, s := b.Row(dst), b.Row(src)
	changed := false
	for i := range d {
		if n := d[i] & s[i]; n != d[i] {
			d[i] = n
			changed = true
		}
	}
	return changed
}

// Equal reports whether rows a and b hold the same bits.
func (b *Bits) Equal(x, y int) bool {
	a, c := b.Row(x), b.Row(y)
	for i := range a {
		if a[i] != c[i] {
			return false
		}
	}
	return true
}

// Set sets bit i of row r.
func (b *Bits) Set(r, i int) { b.w[r*b.Words+i/64] |= 1 << (uint(i) % 64) }

// Unset clears bit i of row r.
func (b *Bits) Unset(r, i int) { b.w[r*b.Words+i/64] &^= 1 << (uint(i) % 64) }

// AndNot clears every bit of row r that is set in mask (a kill mask of
// row width).
func (b *Bits) AndNot(r int, mask []uint64) {
	row := b.Row(r)
	for i := range row {
		row[i] &^= mask[i]
	}
}

// Has reports whether bit i of row r is set.
func (b *Bits) Has(r, i int) bool { return b.w[r*b.Words+i/64]&(1<<(uint(i)%64)) != 0 }
