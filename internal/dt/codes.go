package dt

import (
	"math"
	"slices"
)

// maxDistinctBuckets bounds the distinct values a feature may have and
// still be coded; a feature that exceeds it is wide and the builder sorts
// its values node by node instead.
const maxDistinctBuckets = 512

// valueCodes is the dense form of a dataset's distinct rows the tree
// builder reads: every value of a coded feature replaced by a small integer
// naming it. The features this package serves (template counts, 0/1 flags,
// waits and costs quantized to template latencies) have a few dozen
// distinct values each, so a node's split search needs only per-value label
// counts, which one pass over 2-byte codes gathers without touching the
// float64 rows.
//
// Codes are assigned in first-seen order as distinct rows arrive, so
// coding is incremental: rows already coded never change when later rows
// bring new values. A repeated row is coded once; a feature's distinct
// values, and so whether it is wide, are those of all its rows.
type valueCodes struct {
	// rows is how many leading distinct rows of the dataset are coded.
	rows int
	cols []column
	// cells is the row-major rows × len(cols) code matrix. A wide column's
	// cells are not maintained.
	cells []uint16
}

// column is one feature's code table.
type column struct {
	// sortedVals holds the distinct values seen, ascending; sortedCodes[r]
	// is the code of sortedVals[r], and vals[c] the value code c names.
	// All three are nil once the column is wide.
	sortedVals  []float64
	sortedCodes []uint16
	vals        []float64
	// lastVal and lastCode memoize the previous row's lookup: consecutive
	// rows come from consecutive steps of one schedule and mostly repeat
	// the value.
	lastVal  float64
	lastCode uint16
	wide     bool
}

// bins returns the number of codes in use, 0 for a wide column.
func (c *column) bins() int { return len(c.sortedCodes) }

// code returns v's code, assigning the next free one to a value not seen
// before. ok is false when that would exceed maxDistinctBuckets; the column
// is wide from then on.
func (c *column) code(v float64) (code uint16, ok bool) {
	// A plain binary search: slices.BinarySearch orders through
	// cmp.Compare, whose NaN handling triples the comparisons of the
	// encoder's hottest loop.
	pos, hi := 0, len(c.sortedVals)
	for pos < hi {
		mid := int(uint(pos+hi) >> 1)
		if c.sortedVals[mid] < v {
			pos = mid + 1
		} else {
			hi = mid
		}
	}
	if pos < len(c.sortedVals) && c.sortedVals[pos] == v {
		return c.sortedCodes[pos], true
	}
	if len(c.sortedVals) == maxDistinctBuckets {
		*c = column{wide: true}
		return 0, false
	}
	code = uint16(len(c.sortedVals))
	c.vals = append(c.vals, v)
	c.sortedVals = slices.Insert(c.sortedVals, pos, v)
	c.sortedCodes = slices.Insert(c.sortedCodes, pos, code)
	return code, true
}

// encode codes the distinct rows added since the last call.
func (d *Dataset) encode() {
	c, rows := &d.codes, d.distinct.rows
	if c.rows == len(rows) {
		return
	}
	if c.cols == nil {
		c.cols = make([]column, len(rows[0]))
		for f := range c.cols {
			c.cols[f].lastVal = math.NaN() // equal to no value
		}
	}
	stride := len(c.cols)
	c.cells = slices.Grow(c.cells, len(rows)*stride-len(c.cells))[:len(rows)*stride]
	for i := c.rows; i < len(rows); i++ {
		row := c.cells[i*stride : (i+1)*stride]
		for f, v := range rows[i] {
			col := &c.cols[f]
			if col.wide {
				continue
			}
			if v != col.lastVal {
				code, ok := col.code(v)
				if !ok {
					continue
				}
				col.lastVal, col.lastCode = v, code
			}
			row[f] = col.lastCode
		}
	}
	c.rows = len(rows)
}
