package wire

import (
	"encoding/binary"
	"fmt"
	"io"
	"slices"
)

// Codec is one connection end's framing state. It owns the scratch
// memory every frame passes through, so a warm connection encodes and
// reads frames without allocating:
//
//   - The write half (WriteMessage) builds each frame — type byte, chunk
//     headers, body, terminator — in one reused buffer and hands it to the
//     writer in one Write.
//   - The read half (ReadMessage) reads each body into one reused buffer.
//     The decoder copies every string out of it, so no decoded message
//     aliases codec memory: a message stays valid after later reads.
//
// A buffer that grew past maxRetain for one large frame is dropped after
// that frame, so a connection pins at most maxRetain per half between
// frames however large its peer's messages are.
//
// The halves share nothing: one goroutine may write while another reads,
// as the server's connection does. Each half is not safe for concurrent
// use. The zero value is ready to use.
type Codec struct {
	// Max caps a received frame body; 0 means MaxMessage.
	Max int

	out []byte // write half: the frame being written

	in  []byte  // read half: the body being read
	hdr [2]byte // read half: one chunk header
}

// maxRetain is the most scratch memory a codec half keeps between frames:
// one full chunk, the largest body a well-behaved peer's common frames
// reach.
const maxRetain = 64 << 10

// frameHead is the room WriteMessage leaves ahead of the body: the type
// byte and the first chunk header.
const frameHead = 3

// WriteMessage encodes and frames one message into w with one Write. The
// caller flushes its bufio.Writer at response boundaries.
func (c *Codec) WriteMessage(w io.Writer, m Message) error {
	buf, err := m.encodeBody(append(c.out[:0], m.Type(), 0, 0))
	if err != nil {
		return err
	}
	if len(buf)-frameHead > MaxMessage {
		return fmt.Errorf("%w: encoding %s", ErrTooLarge, MsgName(m.Type()))
	}
	buf = chunk(buf)
	_, err = w.Write(buf)
	if cap(buf) > maxRetain {
		buf = nil
	}
	c.out = buf
	return err
}

// chunk turns frame = [type, 2 spare bytes, body...] into the wire frame
// in place: the body split into chunks of at most maxChunk bytes, each
// behind its uint16 length, then the zero-length terminator. An empty
// body is the terminator alone.
func chunk(frame []byte) []byte {
	n := len(frame) - frameHead
	if n == 0 {
		binary.BigEndian.PutUint16(frame[1:], 0)
		return frame
	}
	chunks := (n + maxChunk - 1) / maxChunk
	// Every chunk after the first needs a header of its own, and the
	// frame ends with the terminator.
	frame = append(frame, make([]byte, 2*chunks)...)
	// Move the chunks up from the last, so none overwrites one it has
	// not moved yet.
	for i := chunks - 1; i >= 0; i-- {
		src := frameHead + i*maxChunk
		size := min(maxChunk, n-i*maxChunk)
		dst := 1 + i*(maxChunk+2)
		copy(frame[dst+2:], frame[src:src+size])
		binary.BigEndian.PutUint16(frame[dst:], uint16(size))
	}
	binary.BigEndian.PutUint16(frame[len(frame)-2:], 0)
	return frame
}

// ReadMessage reads and decodes the next message, enforcing the codec's
// frame-size cap.
func (c *Codec) ReadMessage(r io.Reader) (Message, error) { return c.ReadMessageInto(r, nil) }

// ReadMessageInto is ReadMessage decoding a RECORD into rec, when rec is
// not nil, instead of a new Record, and returning rec: a reader of a
// result stream keeps one Record for all its rows. Each RECORD still gets
// a Values slice of its own, so a row taken from rec.Values stays valid
// after later reads; rec itself holds the latest RECORD only.
func (c *Codec) ReadMessageInto(r io.Reader, rec *Record) (Message, error) {
	typ, body, err := c.readFrame(r)
	var m Message
	if err == nil {
		m, err = decodeMessage(typ, body, rec)
	}
	if cap(c.in) > maxRetain {
		c.in = nil
	}
	return m, err
}

// readFrame reads one message frame into the codec's read buffer,
// enforcing the cap on the accumulated body size incrementally: the
// body grows chunk by chunk and reading stops with ErrTooLarge the
// moment the declared data crosses the cap, so a hostile stream cannot
// force a large allocation up front. The body is valid until the next
// read.
func (c *Codec) readFrame(r io.Reader) (byte, []byte, error) {
	max := c.Max
	if max == 0 {
		max = MaxMessage
	}
	if _, err := io.ReadFull(r, c.hdr[:1]); err != nil {
		return 0, nil, err
	}
	typ := c.hdr[0]
	body := c.in[:0]
	for {
		if _, err := io.ReadFull(r, c.hdr[:]); err != nil {
			return 0, nil, unexpectedEOF(err)
		}
		n := int(binary.BigEndian.Uint16(c.hdr[:]))
		if n == 0 {
			c.in = body
			return typ, body, nil
		}
		if len(body)+n > max {
			return 0, nil, fmt.Errorf("%w: body exceeds %d bytes", ErrTooLarge, max)
		}
		off := len(body)
		body = slices.Grow(body, n)[:off+n]
		if _, err := io.ReadFull(r, body[off:]); err != nil {
			return 0, nil, unexpectedEOF(err)
		}
	}
}

// WriteMessage encodes and frames one message through a one-off codec,
// for callers that own no connection (tests, tools).
func WriteMessage(w io.Writer, m Message) error {
	var c Codec
	return c.WriteMessage(w, m)
}

// ReadMessage reads and decodes one message through a one-off codec,
// enforcing MaxMessage.
func ReadMessage(r io.Reader) (Message, error) {
	var c Codec
	return c.ReadMessage(r)
}

// unexpectedEOF normalizes a mid-frame EOF: the frame was truncated,
// which is a malformed stream, not a clean end of input.
func unexpectedEOF(err error) error {
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return fmt.Errorf("%w: truncated frame", ErrMalformed)
	}
	return err
}
