package offload

// The protocol-v6 data-plane codec: length-prefixed little-endian frames
// carrying 2-bit packed queries to the server and raw scores back. The
// layout is specified in the package documentation; this file holds the
// encoders, the bounded decoders and the pooled per-frame working set.

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"sync"
	"sync/atomic"
)

// Fixed header shared by both directions: body length (the bytes after the
// length field), kind, flags and request ID.
const (
	frameHeaderLen = 14
	frameLenField  = 4
	// frameMinBody is the smallest legal body: kind, flags and ID.
	frameMinBody = frameHeaderLen - frameLenField
	// queryHeaderLen is each query's form byte plus its u32 dim.
	queryHeaderLen = 5
)

// Request kinds: the frame's operation.
const (
	kindClassify byte = iota
	kindListModels
	kindPartialScores
	kindPing
)

// Request flags: optional header fields present on the frame, in this order.
const (
	reqBudget byte = 1 << iota // i64 BudgetNs
	reqTrace                   // u64 Trace
)

// Query forms.
const (
	formPacked2 byte = iota // ceil(dim/4) bytes, four 2-bit codes per byte, low bits first
	formFloat64             // dim little-endian float64s
)

// Reply body kinds.
const (
	bodyNone byte = iota
	bodyResults
	bodyPartials
	bodyModels
)

// Reply flags: optional sections present on the frame, in this order.
const (
	repRefused byte = 1 << iota // u8 code, u16 detail length, detail
	repTiming                   // 3 × i64: QueueNs, ScoreNs, TotalNs
	repGoAway                   // unsolicited drain notice, ID 0
)

// wireCodes numbers the typed failure codes for the one-byte code field of
// a refused reply. Index 0 is unused: a refusal always names a code.
var wireCodes = [...]string{
	1:  codeBadMagic,
	2:  codeVersion,
	3:  codeGeometry,
	4:  codeBatch,
	5:  codeDim,
	6:  codeSymbol,
	7:  codeUnknownModel,
	8:  codeBadOp,
	9:  codeOverloaded,
	10: codePartial,
	11: codeDeadline,
}

// wireCode returns the code byte for a failure code, 0 for a code outside
// the table.
func wireCode(code string) byte {
	for i, c := range wireCodes {
		if i > 0 && c == code {
			return byte(i)
		}
	}
	return 0
}

// opKinds maps request kinds to their Op names; opKind is the inverse.
var opKinds = [...]string{
	kindClassify:      OpClassify,
	kindListModels:    OpListModels,
	kindPartialScores: OpPartialScores,
	kindPing:          OpPing,
}

// opName names a request kind; unknown kinds get a name no op has, which
// the server answers with a typed unsupported-op refusal.
func opName(kind byte) string {
	if int(kind) < len(opKinds) {
		return opKinds[kind]
	}
	return fmt.Sprintf("kind-%d", kind)
}

func opKind(op string) byte {
	for k, name := range opKinds {
		if name == op {
			return byte(k)
		}
	}
	panic("offload: no wire kind for op " + op)
}

// errMalformedFrame reports a frame whose structure is inconsistent with its
// own length. The stream cannot be trusted past it, so the connection ends.
var errMalformedFrame = errors.New("offload: malformed frame")

// unpackLUT expands one packed byte into its four symbols.
var unpackLUT = func() (t [256][4]int8) {
	for b := range t {
		for k := 0; k < 4; k++ {
			t[b][k] = int8(b>>(2*k)&3) + MinSymbol
		}
	}
	return t
}()

// packedLen is the payload size of a dim-symbol packed query.
func packedLen(dim int) int { return (dim + 3) / 4 }

// packFloats writes v into dst (packedLen(len(v)) bytes) as 2-bit codes and
// reports whether every value is a symbol of the alphabet. On false dst
// holds garbage and the query must travel full-precision.
func packFloats(dst []byte, v []float64) bool {
	full := len(v) / 4
	for i := range dst[:full] {
		x := (*[4]float64)(v[4*i:])
		c0, ok0 := symCode(x[0])
		c1, ok1 := symCode(x[1])
		c2, ok2 := symCode(x[2])
		c3, ok3 := symCode(x[3])
		if !(ok0 && ok1 && ok2 && ok3) {
			return false
		}
		dst[i] = byte(c0 | c1<<2 | c2<<4 | c3<<6)
	}
	if len(v) == 4*full {
		return true
	}
	var b uint64
	for k, x := range v[4*full:] {
		c, ok := symCode(x)
		if !ok {
			return false
		}
		b |= c << (2 * k)
	}
	dst[full] = byte(b)
	return true
}

// symCode returns the 2-bit code of x and whether x is a symbol of the
// alphabet. Adding 2^52+2 leaves round(x)+2 in the low mantissa bits of
// the sum, and subtracting it again recovers x exactly only when x is an
// integer — no float-to-int conversion needed.
func symCode(x float64) (uint64, bool) {
	const shift = 1<<52 - float64(MinSymbol)
	y := x + shift
	c := math.Float64bits(y) - math.Float64bits(1<<52)
	return c, y-shift == x && c <= uint64(MaxSymbol-MinSymbol)
}

// packSymbols writes q into dst (packedLen(len(q)) bytes) as 2-bit codes,
// returning the index of the first symbol outside the alphabet, or -1.
func packSymbols(dst []byte, q []int8) int {
	dst = dst[:packedLen(len(q))]
	for i := range dst {
		var b byte
		w := q[4*i : min(4*i+4, len(q))]
		for k, s := range w {
			if s < MinSymbol || s > MaxSymbol {
				return 4*i + k
			}
			b |= byte(s-MinSymbol) << (2 * k)
		}
		dst[i] = b
	}
	return -1
}

// unpackSymbols expands src into dst (one symbol per element) and reports
// whether the pad bits past the last symbol are all zero — the rule that
// gives every query exactly one encoding.
func unpackSymbols(dst []int8, src []byte) bool {
	full := len(dst) / 4
	for i, b := range src[:full] {
		*(*[4]int8)(dst[4*i:]) = unpackLUT[b]
	}
	rem := len(dst) - 4*full
	if rem == 0 {
		return true
	}
	last := src[full]
	copy(dst[4*full:], unpackLUT[last][:rem])
	return last>>(2*rem) == 0
}

// frameLimits bounds what a decoder accepts and allocates.
type frameLimits struct {
	dim      int // required query dim; 0 accepts any dim the frame can carry
	maxBatch int // most queries per frame
	maxBody  int // longest frame body past the fixed header
}

// requestLimits derives a server connection's request bound from its
// handshake geometry and batch limit: the largest legal frame carries
// maxBatch full-precision queries with every optional header field.
func requestLimits(dim, maxBatch int) frameLimits {
	return frameLimits{dim: dim, maxBatch: maxBatch,
		maxBody: 8 + 8 + 4 + maxBatch*(queryHeaderLen+8*dim)}
}

// replyLimit bounds the reply bodies a client accepts from a server with
// the given handshake: a full batch of scores or partials, timing, a
// refusal's detail, and room for a model listing.
func replyLimit(h ServerHello) int {
	batch, classes := max(h.MaxBatch, 1), max(h.Classes, 1)
	return 3 + math.MaxUint16 + 24 + 8 + batch*(4+8*classes) + 8*classes + 1<<20
}

// appendHeader starts a frame: a zero length (patched by finishFrame), the
// kind, the flags and the ID.
func appendHeader(b []byte, kind, flags byte, id uint64) []byte {
	b = append(b, 0, 0, 0, 0, kind, flags)
	return binary.LittleEndian.AppendUint64(b, id)
}

// finishFrame patches the length of the frame b holds.
func finishFrame(b []byte) {
	binary.LittleEndian.PutUint32(b, uint32(len(b)-frameLenField))
}

// appendRequestHeader starts a request frame for req carrying nq queries.
// The ID slot is written from req.ID; clients patch it with setFrameID once
// the frame is registered.
func appendRequestHeader(b []byte, req *Request, nq int) []byte {
	var flags byte
	if req.BudgetNs != 0 {
		flags |= reqBudget
	}
	if req.Trace != 0 {
		flags |= reqTrace
	}
	b = appendHeader(b, opKind(req.Op), flags, req.ID)
	if flags&reqBudget != 0 {
		b = binary.LittleEndian.AppendUint64(b, uint64(req.BudgetNs))
	}
	if flags&reqTrace != 0 {
		b = binary.LittleEndian.AppendUint64(b, req.Trace)
	}
	return binary.LittleEndian.AppendUint32(b, uint32(nq))
}

// setFrameID writes id into an encoded frame's header.
func setFrameID(b []byte, id uint64) { binary.LittleEndian.PutUint64(b[6:], id) }

// appendQueryHeader appends a query's form and dim.
func appendQueryHeader(b []byte, form byte, dim int) []byte {
	return binary.LittleEndian.AppendUint32(append(b, form), uint32(dim))
}

// appendFloatQuery appends one prepared query: 2-bit packed when every value
// is a symbol of the alphabet, full-precision otherwise.
func appendFloatQuery(b []byte, v []float64) []byte {
	start := len(b)
	b = appendQueryHeader(b, formPacked2, len(v))
	n := packedLen(len(v))
	b = slices.Grow(b, n)[:len(b)+n]
	if packFloats(b[len(b)-n:], v) {
		return b
	}
	b = appendQueryHeader(b[:start], formFloat64, len(v))
	for _, x := range v {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
	}
	return b
}

// appendPackedQuery appends an already-quantized query, returning the index
// of the first symbol outside the alphabet, or -1.
func appendPackedQuery(b []byte, q []int8) ([]byte, int) {
	b = appendQueryHeader(b, formPacked2, len(q))
	n := packedLen(len(q))
	b = slices.Grow(b, n)[:len(b)+n]
	return b, packSymbols(b[len(b)-n:], q)
}

// appendReply encodes reply as one frame.
func appendReply(b []byte, r *Reply) []byte {
	var flags, kind byte
	switch {
	case r.Code != "":
		flags |= repRefused
	case r.Models != nil:
		kind = bodyModels
	case r.NormSq != nil:
		kind = bodyPartials
	case r.Results != nil:
		kind = bodyResults
	}
	if r.Timing != nil {
		flags |= repTiming
	}
	if r.GoAway {
		flags |= repGoAway
	}
	b = appendHeader(b, kind, flags, r.ID)
	if flags&repRefused != 0 {
		detail := r.Detail
		if len(detail) > math.MaxUint16 {
			detail = detail[:math.MaxUint16]
		}
		b = append(b, wireCode(r.Code))
		b = binary.LittleEndian.AppendUint16(b, uint16(len(detail)))
		b = append(b, detail...)
	}
	if r.Timing != nil {
		b = binary.LittleEndian.AppendUint64(b, uint64(r.Timing.QueueNs))
		b = binary.LittleEndian.AppendUint64(b, uint64(r.Timing.ScoreNs))
		b = binary.LittleEndian.AppendUint64(b, uint64(r.Timing.TotalNs))
	}
	switch kind {
	case bodyResults:
		classes := 0
		if len(r.Results) > 0 {
			classes = len(r.Results[0].Scores)
		}
		b = binary.LittleEndian.AppendUint32(b, uint32(len(r.Results)))
		b = binary.LittleEndian.AppendUint32(b, uint32(classes))
		for _, res := range r.Results {
			b = binary.LittleEndian.AppendUint32(b, uint32(int32(res.Label)))
			for _, s := range res.Scores[:classes] {
				b = binary.LittleEndian.AppendUint64(b, math.Float64bits(s))
			}
		}
	case bodyPartials:
		classes := len(r.NormSq)
		b = binary.LittleEndian.AppendUint32(b, uint32(len(r.Partials)))
		b = binary.LittleEndian.AppendUint32(b, uint32(classes))
		for _, row := range r.Partials {
			for _, d := range row[:classes] {
				b = binary.LittleEndian.AppendUint64(b, uint64(d))
			}
		}
		for _, n := range r.NormSq {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(n))
		}
	case bodyModels:
		buf := bytes.NewBuffer(b)
		// Encoding a slice of plain structs cannot fail.
		_ = gob.NewEncoder(buf).Encode(r.Models)
		b = buf.Bytes()
	}
	finishFrame(b)
	return b
}

// goAwayFrame is the encoded drain notice: a bare header, ID 0.
var goAwayFrame = appendReply(nil, &Reply{GoAway: true})

// readHeader reads a frame's fixed header into hdr and returns the body
// length. A clean EOF before the first byte is io.EOF; a frame cut short is
// io.ErrUnexpectedEOF.
func readHeader(r io.Reader, hdr *[frameHeaderLen]byte) (int, error) {
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, err
	}
	n := int(binary.LittleEndian.Uint32(hdr[:]))
	if n < frameMinBody {
		return 0, fmt.Errorf("%w: body length %d", errMalformedFrame, n)
	}
	return n - frameMinBody, nil
}

// readBody reads n body bytes into *buf, growing it as needed.
func readBody(r io.Reader, buf *[]byte, n int) ([]byte, error) {
	if cap(*buf) < n {
		*buf = make([]byte, n)
	}
	body := (*buf)[:n]
	if _, err := io.ReadFull(r, body); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	return body, nil
}

// frame is one request frame's working set on the server: the decoded
// request, the buffers its queries alias, the storage its answer is
// computed into, and the encoded reply. Frames are pooled. A frame has one
// owner at a time: the connection's read loop takes it from the pool and
// fills it, the go statement that starts the frame's handler hands it over,
// and that handler — the only goroutine touching it from then on, once the
// scoring workers it waits for are done — returns it to the pool after the
// reply is written.
type frame struct {
	req Request
	// refusal, when its Code is set, is the typed answer the decoder
	// already chose (oversized frame, batch, dim or pad-bit violation).
	refusal Reply

	hdr     [frameHeaderLen]byte
	raw     []byte
	queries []Query
	syms    []int8
	vecs    []float64

	results  []Result
	scores   []float64
	partials [][]int64
	dots     []int64
	wg       sync.WaitGroup
	expired  atomic.Bool

	out []byte
}

var framePool = sync.Pool{New: func() any { return new(frame) }}

func getFrame() *frame { return framePool.Get().(*frame) }

// putFrame resets f and returns it to the pool.
func putFrame(f *frame) {
	f.req = Request{}
	f.refusal = Reply{}
	clear(f.queries)
	clear(f.results)
	clear(f.partials)
	f.expired.Store(false)
	framePool.Put(f)
}

// resultRows returns n results whose Scores are classes-wide rows of the
// frame's score storage.
func (f *frame) resultRows(n, classes int) []Result {
	if cap(f.scores) < n*classes {
		f.scores = make([]float64, n*classes)
	}
	if cap(f.results) < n {
		f.results = make([]Result, n)
	}
	rs := f.results[:n]
	for i := range rs {
		rs[i] = Result{Scores: f.scores[i*classes : (i+1)*classes : (i+1)*classes]}
	}
	return rs
}

// partialRows returns n classes-wide rows of the frame's dot storage.
func (f *frame) partialRows(n, classes int) [][]int64 {
	if cap(f.dots) < n*classes {
		f.dots = make([]int64, n*classes)
	}
	if cap(f.partials) < n {
		f.partials = make([][]int64, n)
	}
	ps := f.partials[:n]
	for i := range ps {
		ps[i] = f.dots[i*classes : (i+1)*classes : (i+1)*classes]
	}
	return ps
}

// refuse records a typed refusal for the frame being decoded.
func (f *frame) refuse(code, detail string) {
	f.refusal = Reply{Code: code, Detail: detail}
}

// readRequest reads and decodes the next request frame from r into f.
// Typed violations — an oversized frame (its body is skipped unread into
// memory), too many queries, a query of the wrong dim, nonzero pad bits —
// leave the stream at the next frame and are recorded in f.refusal with a
// nil error. A truncated frame returns io.ErrUnexpectedEOF and a
// structurally inconsistent one errMalformedFrame; the connection cannot
// continue after either.
func readRequest(r io.Reader, lim frameLimits, f *frame) error {
	n, err := readHeader(r, &f.hdr)
	if err != nil {
		return err
	}
	f.req = Request{ID: binary.LittleEndian.Uint64(f.hdr[6:]), Op: opName(f.hdr[4])}
	if n > lim.maxBody {
		if _, err := io.CopyN(io.Discard, r, int64(n)); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return err
		}
		f.refuse(codeBatch, fmt.Sprintf("frame body of %d bytes exceeds the %d-byte limit", n, lim.maxBody))
		return nil
	}
	body, err := readBody(r, &f.raw, n)
	if err != nil {
		return err
	}
	return decodeRequest(f.hdr[5], body, lim, f)
}

// decodeRequest decodes a request body (everything after the fixed header)
// into f. Allocation is bounded by the body itself: at most four symbols per
// packed byte and one float64 per eight bytes.
func decodeRequest(flags byte, p []byte, lim frameLimits, f *frame) error {
	if flags&^(reqBudget|reqTrace) != 0 {
		return fmt.Errorf("%w: unknown request flags %#x", errMalformedFrame, flags)
	}
	if flags&reqBudget != 0 {
		if len(p) < 8 {
			return errMalformedFrame
		}
		f.req.BudgetNs = int64(binary.LittleEndian.Uint64(p))
		p = p[8:]
	}
	if flags&reqTrace != 0 {
		if len(p) < 8 {
			return errMalformedFrame
		}
		f.req.Trace = binary.LittleEndian.Uint64(p)
		p = p[8:]
	}
	if len(p) < 4 {
		return errMalformedFrame
	}
	nq := int(binary.LittleEndian.Uint32(p))
	p = p[4:]
	if nq > lim.maxBatch {
		f.refuse(codeBatch, fmt.Sprintf("%d queries, limit %d", nq, lim.maxBatch))
		return nil
	}
	if nq > len(p)/queryHeaderLen {
		return fmt.Errorf("%w: %d queries in %d bytes", errMalformedFrame, nq, len(p))
	}

	// Pass 1: walk the query headers, check each payload fits, and size
	// the symbol and vector storage.
	nsyms, nvecs := 0, 0
	q := p
	for i := 0; i < nq; i++ {
		if len(q) < queryHeaderLen {
			return errMalformedFrame
		}
		form := q[0]
		dim := int(binary.LittleEndian.Uint32(q[1:]))
		q = q[queryHeaderLen:]
		var size int
		switch form {
		case formPacked2:
			size = packedLen(dim)
			nsyms += dim
		case formFloat64:
			size = 8 * dim
			nvecs += dim
		default:
			return fmt.Errorf("%w: query %d has unknown form %d", errMalformedFrame, i, form)
		}
		if size > len(q) {
			return fmt.Errorf("%w: query %d needs %d bytes, %d left", errMalformedFrame, i, size, len(q))
		}
		if lim.dim > 0 && dim != lim.dim {
			f.refuse(codeDim, fmt.Sprintf("query %d has dim %d, model dim %d", i, dim, lim.dim))
			return nil
		}
		q = q[size:]
	}
	if len(q) != 0 {
		return fmt.Errorf("%w: %d trailing bytes", errMalformedFrame, len(q))
	}

	// Pass 2: decode into exactly-sized storage.
	if cap(f.queries) < nq {
		f.queries = make([]Query, nq)
	}
	if cap(f.syms) < nsyms {
		f.syms = make([]int8, nsyms)
	}
	if cap(f.vecs) < nvecs {
		f.vecs = make([]float64, nvecs)
	}
	queries, syms, vecs := f.queries[:nq], f.syms[:nsyms], f.vecs[:nvecs]
	for i := range queries {
		form := p[0]
		dim := int(binary.LittleEndian.Uint32(p[1:]))
		p = p[queryHeaderLen:]
		if form == formPacked2 {
			n := packedLen(dim)
			dst := syms[:dim:dim]
			syms = syms[dim:]
			if !unpackSymbols(dst, p[:n]) {
				f.refuse(codeSymbol, fmt.Sprintf("query %d carries nonzero pad bits past dimension %d", i, dim))
				return nil
			}
			queries[i] = Query{Packed: dst}
			p = p[n:]
			continue
		}
		dst := vecs[:dim:dim]
		vecs = vecs[dim:]
		for j := range dst {
			dst[j] = math.Float64frombits(binary.LittleEndian.Uint64(p[8*j:]))
		}
		queries[i] = Query{Vector: dst}
		p = p[8*dim:]
	}
	f.req.Queries = queries
	return nil
}

// replyReader is the client's side of the reply stream: one reader shared
// with the handshake's gob decoder, and buffers reused across frames by the
// receive goroutine that owns it.
type replyReader struct {
	r       *bufio.Reader
	maxBody int
	hdr     [frameHeaderLen]byte
	buf     []byte
}

// next reads one reply frame, returning its kind, flags, ID and body. The
// body aliases the reader's buffer until the next call. started reports
// whether any byte of the frame was consumed, so a read deadline that fires
// between frames can be told from one that cut a frame in half.
func (rr *replyReader) next() (kind, flags byte, id uint64, body []byte, started bool, err error) {
	if _, err := rr.r.Peek(1); err != nil {
		return 0, 0, 0, nil, false, err
	}
	n, err := readHeader(rr.r, &rr.hdr)
	if err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return 0, 0, 0, nil, true, err
	}
	if n > rr.maxBody {
		return 0, 0, 0, nil, true, fmt.Errorf("%w: reply body of %d bytes exceeds the %d-byte limit", errMalformedFrame, n, rr.maxBody)
	}
	body, err = readBody(rr.r, &rr.buf, n)
	return rr.hdr[4], rr.hdr[5], binary.LittleEndian.Uint64(rr.hdr[6:]), body, true, err
}

// decodeReply decodes a reply body into p.reply. Result rows land in the
// pending's score storage, allocated here unless it already has room (a
// fresh pending never does, so every reply's scores are its own); a
// single-query reply uses the pending's inline result.
func decodeReply(kind, flags byte, p []byte, pd *pending) error {
	r := &pd.reply
	if flags&repRefused != 0 {
		if len(p) < 3 {
			return errMalformedFrame
		}
		code := p[0]
		n := int(binary.LittleEndian.Uint16(p[1:]))
		p = p[3:]
		if n > len(p) {
			return errMalformedFrame
		}
		r.Detail = string(p[:n])
		p = p[n:]
		if int(code) < len(wireCodes) && code != 0 {
			r.Code = wireCodes[code]
		} else {
			r.Code = fmt.Sprintf("code-%d", code)
		}
	}
	if flags&repTiming != 0 {
		if len(p) < 24 {
			return errMalformedFrame
		}
		pd.timing = StageTiming{
			QueueNs: int64(binary.LittleEndian.Uint64(p)),
			ScoreNs: int64(binary.LittleEndian.Uint64(p[8:])),
			TotalNs: int64(binary.LittleEndian.Uint64(p[16:])),
		}
		r.Timing = &pd.timing
		p = p[24:]
	}
	switch kind {
	case bodyNone:
	case bodyResults, bodyPartials:
		if len(p) < 8 {
			return errMalformedFrame
		}
		n := int(binary.LittleEndian.Uint32(p))
		classes := int(binary.LittleEndian.Uint32(p[4:]))
		p = p[8:]
		row := 8 * classes
		if kind == bodyResults {
			row += 4
		}
		if classes > len(p)/8 || n > len(p)/max(row, 1) {
			return errMalformedFrame
		}
		if kind == bodyResults {
			if len(p) != n*row {
				return errMalformedFrame
			}
			decodeResults(p, n, classes, pd)
			break
		}
		if len(p) != n*row+8*classes {
			return errMalformedFrame
		}
		dots := make([]int64, n*classes)
		for i := range dots {
			dots[i] = int64(binary.LittleEndian.Uint64(p[8*i:]))
		}
		r.Partials = make([][]int64, n)
		for i := range r.Partials {
			r.Partials[i] = dots[i*classes : (i+1)*classes : (i+1)*classes]
		}
		p = p[8*len(dots):]
		r.NormSq = make([]float64, classes)
		for l := range r.NormSq {
			r.NormSq[l] = math.Float64frombits(binary.LittleEndian.Uint64(p[8*l:]))
		}
	case bodyModels:
		if err := gob.NewDecoder(bytes.NewReader(p)).Decode(&r.Models); err != nil {
			return fmt.Errorf("%w: model listing: %v", errMalformedFrame, err)
		}
	default:
		return fmt.Errorf("%w: unknown reply body kind %d", errMalformedFrame, kind)
	}
	return nil
}

// decodeResults decodes n labelled score rows of the given width.
func decodeResults(p []byte, n, classes int, pd *pending) {
	if cap(pd.scores) < n*classes {
		pd.scores = make([]float64, n*classes)
	}
	scores := pd.scores[:n*classes]
	results := pd.one[:]
	if n != 1 {
		results = make([]Result, n)
	}
	for i := range results {
		label := int(int32(binary.LittleEndian.Uint32(p)))
		p = p[4:]
		row := scores[i*classes : (i+1)*classes : (i+1)*classes]
		for l := range row {
			row[l] = math.Float64frombits(binary.LittleEndian.Uint64(p[8*l:]))
		}
		p = p[8*classes:]
		results[i] = Result{Label: label, Scores: row}
	}
	pd.reply.Results = results
}

// frameBufs recycles client request-frame buffers. The caller that builds
// a frame takes a buffer; the send goroutine, the frame's last user,
// returns it once the bytes are in the connection's write buffer.
var frameBufs = sync.Pool{New: func() any { return new([]byte) }}
