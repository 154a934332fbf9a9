package wire

import (
	"encoding/binary"
	"io"
)

// The handshake is fixed-size in both directions so it can be read
// before any framing exists:
//
//	client → server: Magic (4 bytes) + 4 candidate versions (uint32 BE
//	                 each, preference order, 0 = unused slot)
//	server → client: chosen version (uint32 BE), 0 = no common version
//	                 (the server closes after writing it)

// handshakeLen is the size of the client's handshake.
const handshakeLen = 4 + 4*4

// WriteClientHandshake sends the magic and up to four candidate
// versions in preference order.
func WriteClientHandshake(w io.Writer, versions ...uint32) error {
	var buf [handshakeLen]byte
	copy(buf[:4], Magic[:])
	for i := 0; i < 4 && i < len(versions); i++ {
		binary.BigEndian.PutUint32(buf[4+4*i:], versions[i])
	}
	_, err := w.Write(buf[:])
	return err
}

// ReadClientHandshake validates the magic and returns the client's
// candidate versions.
func ReadClientHandshake(r io.Reader) ([4]uint32, error) {
	var buf [handshakeLen]byte
	var versions [4]uint32
	if _, err := io.ReadFull(r, buf[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			err = ErrMalformed
		}
		return versions, err
	}
	if [4]byte(buf[:4]) != Magic {
		return versions, ErrBadMagic
	}
	for i := range versions {
		versions[i] = binary.BigEndian.Uint32(buf[4+4*i:])
	}
	return versions, nil
}

// supported reports whether this build speaks version v.
func supported(v uint32) bool { return v >= Version1 && v <= LatestVersion }

// ChooseVersion picks the first candidate the server supports (the
// client lists candidates in preference order), or 0. An old client
// offering only Version1 therefore still gets Version1 from a
// Version3-capable server.
func ChooseVersion(candidates [4]uint32) uint32 {
	for _, v := range candidates {
		if supported(v) {
			return v
		}
	}
	return 0
}

// WriteServerHandshake sends the server's chosen version.
func WriteServerHandshake(w io.Writer, version uint32) error {
	var buf [4]byte
	binary.BigEndian.PutUint32(buf[:], version)
	_, err := w.Write(buf[:])
	return err
}

// ReadServerHandshake reads the server's choice; 0 (or any version the
// client does not speak) is ErrVersionMismatch.
func ReadServerHandshake(r io.Reader) (uint32, error) {
	var buf [4]byte
	if _, err := io.ReadFull(r, buf[:]); err != nil {
		return 0, err
	}
	v := binary.BigEndian.Uint32(buf[:])
	if !supported(v) {
		return v, ErrVersionMismatch
	}
	return v, nil
}
