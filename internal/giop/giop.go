// Package giop implements PIOP, the PARDIS Inter-ORB Protocol: a
// GIOP-style message layer carrying requests, replies, locate
// queries, cancellations and — beyond stock GIOP — the block-transfer
// messages of multi-port distributed-argument transfer (§3.3 of the
// paper, "transfer headers").
//
// Every message starts with a fixed 12-octet header:
//
//	octets 0-3  magic "PIOP"
//	octets 4-5  protocol version (major, minor)
//	octet  6    flags (bit 0: 1 = little-endian body and length)
//	octet  7    message type
//	octets 8-11 body length (in the flagged byte order)
//
// followed by a CDR-encoded body whose alignment is computed from
// offset 0 of the body.
package giop

import (
	"errors"
	"fmt"
	"io"
	"net"

	"pardis/internal/cdr"
	"pardis/internal/telemetry"
)

// Protocol constants.
const (
	// MagicLen is the length of the magic string.
	MagicLen = 4
	// HeaderLen is the fixed message-header length.
	HeaderLen = 12
	// VersionMajor and VersionMinor identify this PIOP revision.
	// 1.1 added the trace context and the remaining-deadline budget to
	// the request header; 1.0 peers (headers without either) are still
	// decoded — see DecodeRequestHeaderV.
	VersionMajor = 1
	VersionMinor = 1
	// MaxBodyLen bounds a message body; longer lengths are treated
	// as stream corruption.
	MaxBodyLen = 1 << 30
)

var magic = [MagicLen]byte{'P', 'I', 'O', 'P'}

// MsgType enumerates PIOP message types.
type MsgType byte

// Message types.
const (
	MsgRequest MsgType = iota
	MsgReply
	MsgCancelRequest
	MsgLocateRequest
	MsgLocateReply
	MsgCloseConnection
	MsgError
	MsgBlockTransfer
	// MsgWindowPut is a one-sided block delivery into a pre-registered
	// destination window. Added in PIOP 1.1; 1.0 frames carrying it are
	// rejected, and senders only emit it to peers that advertised the
	// capability (see WindowPutHeader).
	MsgWindowPut
	msgTypeCount
)

func (t MsgType) String() string {
	switch t {
	case MsgRequest:
		return "Request"
	case MsgReply:
		return "Reply"
	case MsgCancelRequest:
		return "CancelRequest"
	case MsgLocateRequest:
		return "LocateRequest"
	case MsgLocateReply:
		return "LocateReply"
	case MsgCloseConnection:
		return "CloseConnection"
	case MsgError:
		return "MessageError"
	case MsgBlockTransfer:
		return "BlockTransfer"
	case MsgWindowPut:
		return "WindowPut"
	default:
		return fmt.Sprintf("MsgType(%d)", byte(t))
	}
}

// Errors surfaced by the message layer.
var (
	ErrBadMagic   = errors.New("giop: bad magic")
	ErrBadVersion = errors.New("giop: unsupported protocol version")
	ErrBadType    = errors.New("giop: unknown message type")
	ErrTooLong    = errors.New("giop: message body exceeds limit")
	ErrBlockRange = errors.New("giop: block transfer field out of range")
)

// WriteMessage frames and writes one PIOP message. Header and body go
// out as a gather write (writev on TCP, or via the BuffersWriter hook
// for wrapping conns), so the body is never copied after the header;
// callers serialize concurrent writers above us, keeping frames whole
// on the wire.
func WriteMessage(w io.Writer, order cdr.ByteOrder, t MsgType, body []byte) error {
	if t >= msgTypeCount {
		return fmt.Errorf("%w: %d", ErrBadType, t)
	}
	if len(body) > MaxBodyLen {
		return fmt.Errorf("%w: %d bytes", ErrTooLong, len(body))
	}
	s := writePool.Get().(*writeScratch)
	putHeader(&s.hdr, order, t, uint32(len(body)))
	var err error
	if len(body) == 0 {
		_, err = w.Write(s.hdr[:])
	} else {
		// The gather vector lives in the pooled scratch so taking its
		// address (WriteTo/WriteBuffers consume the slice in place)
		// does not force a per-call allocation.
		s.vec[0], s.vec[1] = s.hdr[:], body
		s.bufs = net.Buffers(s.vec[:2])
		if bw, ok := w.(BuffersWriter); ok {
			_, err = bw.WriteBuffers(&s.bufs)
		} else {
			_, err = s.bufs.WriteTo(w)
		}
		s.vec[0], s.vec[1] = nil, nil
		s.bufs = nil
	}
	writePool.Put(s)
	return err
}

// WriteMessageTail frames head followed by tail as one message body,
// gather-writing all three segments (header, head, tail) in a single
// writev. The tail — typically raw element data aliasing application
// memory on the window-put send path — is never copied into a frame
// buffer; the caller guarantees it stays unmodified for the duration
// of the write.
func WriteMessageTail(w io.Writer, order cdr.ByteOrder, t MsgType, head, tail []byte) error {
	if len(tail) == 0 {
		return WriteMessage(w, order, t, head)
	}
	if t >= msgTypeCount {
		return fmt.Errorf("%w: %d", ErrBadType, t)
	}
	n := len(head) + len(tail)
	if n > MaxBodyLen {
		return fmt.Errorf("%w: %d bytes", ErrTooLong, n)
	}
	s := writePool.Get().(*writeScratch)
	putHeader(&s.hdr, order, t, uint32(n))
	s.vec[0], s.vec[1], s.vec[2] = s.hdr[:], head, tail
	s.bufs = net.Buffers(s.vec[:3])
	var err error
	if bw, ok := w.(BuffersWriter); ok {
		_, err = bw.WriteBuffers(&s.bufs)
	} else {
		_, err = s.bufs.WriteTo(w)
	}
	s.vec[0], s.vec[1], s.vec[2] = nil, nil, nil
	s.bufs = nil
	writePool.Put(s)
	return err
}

// Frame is one framed PIOP message plus the protocol revision it was
// sent under. Decoders of version-evolved bodies (the request header
// gained trace bytes in 1.1) need Minor to pick the right layout.
type Frame struct {
	Type  MsgType
	Order cdr.ByteOrder
	Minor byte
	Body  []byte

	// pb is the pooled backing of Body for control frames read with a
	// FrameReader; see Frame.Release.
	pb *pooledBody
}

// ReadFrame reads and validates one PIOP message, keeping the sender's
// minor protocol version alongside the body. The header scratch is
// pooled; the body is always freshly allocated (ownership transfers
// to the caller). Read loops should prefer a FrameReader, which adds
// read buffering and body pooling.
func ReadFrame(r io.Reader) (Frame, error) {
	hdr := writePool.Get().(*writeScratch)
	f, err := readFrame(r, &hdr.hdr, false)
	writePool.Put(hdr)
	return f, err
}

// ReadMessage reads and validates one PIOP message, returning its
// type, body byte order and body. Callers that must decode
// version-evolved bodies should use ReadFrame to keep the sender's
// minor version.
func ReadMessage(r io.Reader) (MsgType, cdr.ByteOrder, []byte, error) {
	f, err := ReadFrame(r)
	if err != nil {
		return 0, 0, nil, err
	}
	return f.Type, f.Order, f.Body, nil
}

// ReplyStatus enumerates reply outcomes.
type ReplyStatus uint32

// Reply statuses.
const (
	// ReplyOK carries marshaled out-arguments.
	ReplyOK ReplyStatus = iota
	// ReplyUserException carries a user exception body.
	ReplyUserException
	// ReplySystemException carries a SystemException body.
	ReplySystemException
	// ReplyLocationForward carries a stringified IOR to retry at.
	ReplyLocationForward
)

func (s ReplyStatus) String() string {
	switch s {
	case ReplyOK:
		return "NO_EXCEPTION"
	case ReplyUserException:
		return "USER_EXCEPTION"
	case ReplySystemException:
		return "SYSTEM_EXCEPTION"
	case ReplyLocationForward:
		return "LOCATION_FORWARD"
	default:
		return fmt.Sprintf("ReplyStatus(%d)", uint32(s))
	}
}

// RequestHeader precedes the marshaled in-arguments in a Request body.
type RequestHeader struct {
	// RequestID pairs the request with its reply on the connection.
	RequestID uint32
	// InvocationID correlates this request with block transfers that
	// arrive on other connections (multi-port transfer). It must be
	// unique across all clients of the server for the lifetime of the
	// invocation; clients derive it from a per-process random prefix
	// plus a counter.
	InvocationID uint64
	// ResponseExpected is false for oneway operations.
	ResponseExpected bool
	// ObjectKey names the target object within its ORB.
	ObjectKey string
	// Operation is the IDL operation name.
	Operation string
	// ThreadRank is the client's SPMD rank issuing this request, or
	// -1 for a plain (non-SPMD) client.
	ThreadRank int32
	// ThreadCount is the client's SPMD section size (1 for plain
	// clients). The server uses it to compute transfer plans.
	ThreadCount int32
	// Trace carries the request's distributed tracing identity (trace
	// id, parent span id, sampled flag) across the process boundary.
	// Added in PIOP 1.1; a zero value means "untraced" and costs the
	// wire 17 zero bytes. Headers framed as 1.0 omit it entirely.
	Trace telemetry.TraceContext
	// DeadlineMicros is the client's remaining end-to-end time budget
	// for this request in microseconds, measured when the request was
	// written (0 = no deadline). It is a relative duration, not an
	// absolute timestamp, so it survives clock skew between peers; the
	// server rebases it against its own clock on arrival and sheds the
	// request with a TIMEOUT system exception once the budget is gone.
	// Added in PIOP 1.1 after the trace context; 1.0 headers omit it.
	DeadlineMicros uint64
}

// Encode appends the header to an encoder (PIOP 1.1 layout, trace
// context included).
func (h *RequestHeader) Encode(e *cdr.Encoder) {
	e.PutULong(h.RequestID)
	e.PutULongLong(h.InvocationID)
	e.PutBoolean(h.ResponseExpected)
	e.PutString(h.ObjectKey)
	e.PutString(h.Operation)
	e.PutLong(h.ThreadRank)
	e.PutLong(h.ThreadCount)
	e.PutULongLong(h.Trace.TraceID)
	e.PutULongLong(h.Trace.SpanID)
	e.PutBoolean(h.Trace.Sampled)
	e.PutULongLong(h.DeadlineMicros)
}

// DecodeRequestHeader reads a current-version RequestHeader. For
// bodies framed under an older minor version use
// DecodeRequestHeaderV.
func DecodeRequestHeader(d *cdr.Decoder) (RequestHeader, error) {
	return DecodeRequestHeaderV(d, VersionMinor)
}

// DecodeRequestHeaderV reads a RequestHeader laid out by the given
// minor protocol version: 1.0 headers carry no trace or deadline
// bytes (the decoder leaves Trace zero and DeadlineMicros 0, i.e. "no
// deadline"), 1.1 headers carry trace id, span id, the sampled flag
// and the remaining deadline budget.
func DecodeRequestHeaderV(d *cdr.Decoder, minor byte) (RequestHeader, error) {
	var h RequestHeader
	var err error
	if h.RequestID, err = d.ULong(); err != nil {
		return h, err
	}
	if h.InvocationID, err = d.ULongLong(); err != nil {
		return h, err
	}
	if h.ResponseExpected, err = d.Boolean(); err != nil {
		return h, err
	}
	if h.ObjectKey, err = d.String(); err != nil {
		return h, err
	}
	if h.Operation, err = d.String(); err != nil {
		return h, err
	}
	if h.ThreadRank, err = d.Long(); err != nil {
		return h, err
	}
	if h.ThreadCount, err = d.Long(); err != nil {
		return h, err
	}
	if minor == 0 {
		return h, nil // 1.0 header: no trace or deadline bytes on the wire
	}
	if h.Trace.TraceID, err = d.ULongLong(); err != nil {
		return h, err
	}
	if h.Trace.SpanID, err = d.ULongLong(); err != nil {
		return h, err
	}
	if h.Trace.Sampled, err = d.Boolean(); err != nil {
		return h, err
	}
	if h.DeadlineMicros, err = d.ULongLong(); err != nil {
		return h, err
	}
	return h, nil
}

// EncodeV10 appends the header in the PIOP 1.0 layout (no trace or
// deadline bytes) — used by tests that exercise old-peer
// compatibility.
func (h *RequestHeader) EncodeV10(e *cdr.Encoder) {
	e.PutULong(h.RequestID)
	e.PutULongLong(h.InvocationID)
	e.PutBoolean(h.ResponseExpected)
	e.PutString(h.ObjectKey)
	e.PutString(h.Operation)
	e.PutLong(h.ThreadRank)
	e.PutLong(h.ThreadCount)
}

// ReplyHeader precedes the marshaled out-arguments in a Reply body.
type ReplyHeader struct {
	RequestID uint32
	Status    ReplyStatus
}

// Encode appends the header to an encoder.
func (h *ReplyHeader) Encode(e *cdr.Encoder) {
	e.PutULong(h.RequestID)
	e.PutULong(uint32(h.Status))
}

// DecodeReplyHeader reads a ReplyHeader.
func DecodeReplyHeader(d *cdr.Decoder) (ReplyHeader, error) {
	var h ReplyHeader
	var err error
	if h.RequestID, err = d.ULong(); err != nil {
		return h, err
	}
	s, err := d.ULong()
	if err != nil {
		return h, err
	}
	h.Status = ReplyStatus(s)
	return h, nil
}

// CancelRequestHeader asks the server to abandon a pending request.
type CancelRequestHeader struct {
	RequestID uint32
}

// Encode appends the header to an encoder.
func (h *CancelRequestHeader) Encode(e *cdr.Encoder) { e.PutULong(h.RequestID) }

// DecodeCancelRequestHeader reads a CancelRequestHeader.
func DecodeCancelRequestHeader(d *cdr.Decoder) (CancelRequestHeader, error) {
	id, err := d.ULong()
	return CancelRequestHeader{RequestID: id}, err
}

// LocateStatus enumerates LocateReply outcomes.
type LocateStatus uint32

// Locate statuses.
const (
	// LocateUnknown means the object key is not served here.
	LocateUnknown LocateStatus = iota
	// LocateHere means the object is served on this connection.
	LocateHere
	// LocateForward carries a stringified IOR to retry at.
	LocateForward
)

// LocateRequestHeader asks whether an object key is served here.
type LocateRequestHeader struct {
	RequestID uint32
	ObjectKey string
}

// Encode appends the header to an encoder.
func (h *LocateRequestHeader) Encode(e *cdr.Encoder) {
	e.PutULong(h.RequestID)
	e.PutString(h.ObjectKey)
}

// DecodeLocateRequestHeader reads a LocateRequestHeader.
func DecodeLocateRequestHeader(d *cdr.Decoder) (LocateRequestHeader, error) {
	var h LocateRequestHeader
	var err error
	if h.RequestID, err = d.ULong(); err != nil {
		return h, err
	}
	h.ObjectKey, err = d.String()
	return h, err
}

// LocateReplyHeader answers a LocateRequest. For LocateForward the
// body continues with a stringified IOR.
type LocateReplyHeader struct {
	RequestID uint32
	Status    LocateStatus
}

// Encode appends the header to an encoder.
func (h *LocateReplyHeader) Encode(e *cdr.Encoder) {
	e.PutULong(h.RequestID)
	e.PutULong(uint32(h.Status))
}

// DecodeLocateReplyHeader reads a LocateReplyHeader.
func DecodeLocateReplyHeader(d *cdr.Decoder) (LocateReplyHeader, error) {
	var h LocateReplyHeader
	var err error
	if h.RequestID, err = d.ULong(); err != nil {
		return h, err
	}
	s, err := d.ULong()
	h.Status = LocateStatus(s)
	return h, err
}

// BlockTransferHeader precedes one block of a distributed argument in
// multi-port transfer (the paper's "transfer header": the receiver
// "unpacks them according to information contained in the transfer
// header"). The element payload follows in CDR.
type BlockTransferHeader struct {
	// InvocationID ties the block to its invocation across
	// connections. The SPMD data plane sets it to
	// BlockSinkKey(invocation, ArgIndex): the ID of the destination
	// window the receiver lands the block in.
	InvocationID uint64
	// ArgIndex identifies which distributed argument of the
	// operation this block belongs to.
	ArgIndex uint32
	// FromThread and ToThread are SPMD ranks on the sending and
	// receiving sides.
	FromThread int32
	ToThread   int32
	// DstOff is the destination local offset of the block's first
	// element; Count is the element count.
	DstOff uint32
	Count  uint32
	// Last marks the final block this sender contributes to
	// (RequestID, ArgIndex, ToThread), letting the receiver detect
	// completion without knowing the full plan in advance.
	Last bool
}

// Encode appends the header to an encoder.
func (h *BlockTransferHeader) Encode(e *cdr.Encoder) {
	e.PutULongLong(h.InvocationID)
	e.PutULong(h.ArgIndex)
	e.PutLong(h.FromThread)
	e.PutLong(h.ToThread)
	e.PutULong(h.DstOff)
	e.PutULong(h.Count)
	e.PutBoolean(h.Last)
}

// DecodeBlockTransferHeader reads a BlockTransferHeader.
func DecodeBlockTransferHeader(d *cdr.Decoder) (BlockTransferHeader, error) {
	var h BlockTransferHeader
	var err error
	if h.InvocationID, err = d.ULongLong(); err != nil {
		return h, err
	}
	if h.ArgIndex, err = d.ULong(); err != nil {
		return h, err
	}
	if h.FromThread, err = d.Long(); err != nil {
		return h, err
	}
	if h.ToThread, err = d.Long(); err != nil {
		return h, err
	}
	if h.DstOff, err = d.ULong(); err != nil {
		return h, err
	}
	if h.Count, err = d.ULong(); err != nil {
		return h, err
	}
	h.Last, err = d.Boolean()
	return h, err
}

// WindowPutHeader precedes the raw element payload of a MsgWindowPut
// frame: a one-sided delivery into a destination window the receiver
// registered before advertising the window ID. Unlike a routed
// BlockTransfer, the payload carries no CDR sequence framing — the
// element count is here, so a receiver that has the window registered
// can land the bytes straight off its read buffer into
// dst[DstOff:DstOff+Count] without allocating a body.
type WindowPutHeader struct {
	// WindowID names the pre-registered destination window. The SPMD
	// data plane uses the BlockSinkKey space (invocation<<8|argIndex),
	// which routed blocks carry as InvocationID, so both wires address
	// the same window.
	WindowID uint64
	// FromThread is the sending SPMD rank, for diagnostics and
	// partial-failure attribution.
	FromThread int32
	// DstOff is the destination element offset; Count the element
	// count. The body length must equal WindowPutPayloadBase+8*Count.
	DstOff uint32
	Count  uint32
	// Last marks the final put this sender contributes to the window.
	Last bool
}

// windowPutHeaderLen is the encoded header length (8+4+4+4+1); the
// payload starts at the next 8-byte boundary.
const windowPutHeaderLen = 21

// WindowPutPayloadBase is the fixed body offset of the raw element
// payload in a MsgWindowPut frame: the 21 header octets padded to
// 8-byte alignment so the elements land aligned on both ends.
const WindowPutPayloadBase = 24

// Encode appends the header to an encoder, padded to
// WindowPutPayloadBase so the element payload can follow directly.
func (h *WindowPutHeader) Encode(e *cdr.Encoder) {
	e.PutULongLong(h.WindowID)
	e.PutLong(h.FromThread)
	e.PutULong(h.DstOff)
	e.PutULong(h.Count)
	e.PutBoolean(h.Last)
	for i := windowPutHeaderLen; i < WindowPutPayloadBase; i++ {
		e.PutOctet(0)
	}
}

// DecodeWindowPutHeader reads a WindowPutHeader (the padding up to
// WindowPutPayloadBase is not consumed).
func DecodeWindowPutHeader(d *cdr.Decoder) (WindowPutHeader, error) {
	var h WindowPutHeader
	var err error
	if h.WindowID, err = d.ULongLong(); err != nil {
		return h, err
	}
	if h.FromThread, err = d.Long(); err != nil {
		return h, err
	}
	if h.DstOff, err = d.ULong(); err != nil {
		return h, err
	}
	if h.Count, err = d.ULong(); err != nil {
		return h, err
	}
	h.Last, err = d.Boolean()
	return h, err
}

// Destination windows are keyed by invocation ID and argument index
// packed into one uint64 (invocation in the high 56 bits, argument
// index in the low 8). The packing bounds both fields: invocation IDs above
// MaxBlockInvocationID would silently lose their high bits to the
// shift, and argument indexes above MaxBlockArgIndex would collide
// with the next invocation's key space.
const (
	MaxBlockInvocationID = 1<<56 - 1
	MaxBlockArgIndex     = 0xFF
)

// BlockSinkKey packs (invocation, argIndex) into the window key,
// validating that neither field overflows its packed width.
func BlockSinkKey(inv uint64, argIdx uint32) (uint64, error) {
	if inv > MaxBlockInvocationID {
		return 0, fmt.Errorf("%w: invocation id %#x exceeds 56 bits", ErrBlockRange, inv)
	}
	if argIdx > MaxBlockArgIndex {
		return 0, fmt.Errorf("%w: argument index %d exceeds %d", ErrBlockRange, argIdx, MaxBlockArgIndex)
	}
	return inv<<8 | uint64(argIdx), nil
}

// CheckBlockRange validates that a transfer's destination offset and
// element count fit the uint32 wire fields of BlockTransferHeader
// (including their sum, so DstOff+Count cannot wrap on the receiver).
func CheckBlockRange(dstOff, count int) error {
	if dstOff < 0 || uint64(dstOff) > 0xFFFFFFFF {
		return fmt.Errorf("%w: destination offset %d does not fit uint32", ErrBlockRange, dstOff)
	}
	if count < 0 || uint64(count) > 0xFFFFFFFF {
		return fmt.Errorf("%w: element count %d does not fit uint32", ErrBlockRange, count)
	}
	if uint64(dstOff)+uint64(count) > 0xFFFFFFFF {
		return fmt.Errorf("%w: offset %d + count %d overflows uint32", ErrBlockRange, dstOff, count)
	}
	return nil
}

// SystemException is the PIOP-level error a server returns when a
// request fails outside user code (unknown object, unmarshal failure,
// servant panic, ...).
type SystemException struct {
	// Code is a short machine-readable identifier, e.g.
	// "OBJECT_NOT_EXIST", "MARSHAL", "UNKNOWN".
	Code string
	// Detail is a human-readable explanation.
	Detail string
}

// Error implements error.
func (e *SystemException) Error() string {
	return fmt.Sprintf("pardis system exception %s: %s", e.Code, e.Detail)
}

// Encode appends the exception to an encoder.
func (e *SystemException) Encode(enc *cdr.Encoder) {
	enc.PutString(e.Code)
	enc.PutString(e.Detail)
}

// DecodeSystemException reads a SystemException.
func DecodeSystemException(d *cdr.Decoder) (*SystemException, error) {
	code, err := d.String()
	if err != nil {
		return nil, err
	}
	detail, err := d.String()
	if err != nil {
		return nil, err
	}
	return &SystemException{Code: code, Detail: detail}, nil
}
