package service

import (
	"encoding/json"
	"math"
	"reflect"
	"sort"
	"strconv"

	"repro/internal/experiments"
	"repro/internal/partition"
)

// pointEncoder renders /v1/explore point lines without reflection or a
// label map: its output is byte-for-byte json.Marshal of the
// equivalent explorePointJSON. The label keys are formatted once per
// sweep; each point only copies a template and sets its bits.
type pointEncoder struct {
	// labels is a point's "labels" object with every bit '0'. Its keys
	// are ExploreLabelKey names in the byte-wise order encoding/json
	// sorts map keys in, so "L0.10" precedes "L0.2".
	labels []byte
	// bitAt[i] is the offset in labels of free variable i's bit.
	bitAt []int
	// maxPoint bounds the length of one rendered point object.
	maxPoint int
}

// Fixed parts of a point object and the summary line.
const (
	pointHead     = `{"type":"point","code":`
	pointLabels   = `,"labels":`
	pointGain     = `,"gain":`
	pointIsHyPar  = `,"isHyPar":`
	summaryHead   = `{"type":"summary","peak":`
	summaryHyPar  = `,"hypar":`
	maxFloatBytes = 25 // longest float64 appendJSONFloat renders ("-0.0000012345678901234567")
)

// nullPoint is json.Marshal of a zero explorePointJSON: what a summary
// slot holds when no point filled it.
const nullPoint = `{"type":"point","code":0,"labels":null,"gain":0,"isHyPar":false}`

// newPointEncoder compiles the label template for a sweep over free.
// The cells of free must be distinct (resolveRequest rejects repeats),
// or the template would repeat a key where a map keeps one.
func newPointEncoder(free []partition.FreeVar) *pointEncoder {
	keys := make([]string, len(free))
	order := make([]int, len(free))
	for i, fv := range free {
		keys[i] = experiments.ExploreLabelKey(fv)
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return keys[order[a]] < keys[order[b]] })
	e := &pointEncoder{bitAt: make([]int, len(free))}
	e.labels = append(e.labels, '{')
	for j, i := range order {
		if j > 0 {
			e.labels = append(e.labels, ',')
		}
		e.labels = append(e.labels, '"')
		e.labels = append(e.labels, keys[i]...)
		e.labels = append(e.labels, `":"`...)
		e.bitAt[i] = len(e.labels)
		e.labels = append(e.labels, '0', '"')
	}
	e.labels = append(e.labels, '}')
	maxCode := len(strconv.Itoa(1<<uint(len(free)) - 1))
	e.maxPoint = len(pointHead) + maxCode + len(pointLabels) + len(e.labels) +
		len(pointGain) + maxFloatBytes + len(pointIsHyPar) + len("false}")
	return e
}

// bodyCap bounds the length of a whole sweep body — the header line,
// every point line and the summary line — so the body is allocated
// once.
func (e *pointEncoder) bodyCap(headerLen, points int) int {
	return headerLen + 1 + points*(e.maxPoint+1) +
		len(summaryHead) + len(summaryHyPar) + 2*e.maxPoint + 2
}

// appendPoint appends the point object for code (no newline) to dst. A
// non-finite gain fails with the error json.Marshal reports, leaving
// dst unchanged.
func (e *pointEncoder) appendPoint(dst []byte, code int, gain float64, isHyPar bool) ([]byte, error) {
	if math.IsInf(gain, 0) || math.IsNaN(gain) {
		return dst, &json.UnsupportedValueError{Value: reflect.ValueOf(gain), Str: strconv.FormatFloat(gain, 'g', -1, 64)}
	}
	dst = append(dst, pointHead...)
	dst = strconv.AppendInt(dst, int64(code), 10)
	dst = append(dst, pointLabels...)
	at := len(dst)
	dst = append(dst, e.labels...)
	for i, off := range e.bitAt {
		if code>>uint(i)&1 != 0 {
			dst[at+off] = '1'
		}
	}
	dst = append(dst, pointGain...)
	dst = appendJSONFloat(dst, gain)
	dst = append(dst, pointIsHyPar...)
	dst = strconv.AppendBool(dst, isHyPar)
	return append(dst, '}'), nil
}

// appendJSONFloat appends a finite f exactly as encoding/json renders a
// float64: the shortest 'f' form, switching to 'e' below 1e-6 and from
// 1e21 on, with a one-digit negative exponent unpadded (e-07 → e-7).
func appendJSONFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		n := len(dst)
		if n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}
