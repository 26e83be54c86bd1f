// Package modes implements block-cipher modes of operation (ECB, CBC, CTR)
// and PKCS#7 padding over any block cipher in this repository.
//
// The record layers of the protocol substrates (internal/wtls,
// internal/esp) compose these modes with the negotiated cipher, mirroring
// the protocol-flexibility requirement of Section 3.1.
package modes

import (
	"errors"
	"fmt"

	"repro/internal/crypto/bitutil"
	"repro/internal/obs"
)

// Static metric handles: one counter pair (ops, bytes) per mode and
// direction. Disarmed (the default) each update is a flag check.
var (
	mECBEncOps   = obs.C("crypto.modes.ecb_encrypt_ops")
	mECBEncBytes = obs.C("crypto.modes.ecb_encrypt_bytes")
	mECBDecOps   = obs.C("crypto.modes.ecb_decrypt_ops")
	mECBDecBytes = obs.C("crypto.modes.ecb_decrypt_bytes")
	mCBCEncOps   = obs.C("crypto.modes.cbc_encrypt_ops")
	mCBCEncBytes = obs.C("crypto.modes.cbc_encrypt_bytes")
	mCBCDecOps   = obs.C("crypto.modes.cbc_decrypt_ops")
	mCBCDecBytes = obs.C("crypto.modes.cbc_decrypt_bytes")
	mCTROps      = obs.C("crypto.modes.ctr_ops")
	mCTRBytes    = obs.C("crypto.modes.ctr_bytes")
	mPadErrors   = obs.C("crypto.modes.pad_errors")
)

// Block is the block-cipher interface shared by des, aes and rc2. It is
// intentionally identical in shape to crypto/cipher.Block.
type Block interface {
	BlockSize() int
	Encrypt(dst, src []byte)
	Decrypt(dst, src []byte)
}

// ErrNotBlockAligned reports input whose length is not a multiple of the
// cipher block size.
var ErrNotBlockAligned = errors.New("modes: input not a multiple of the block size")

// ErrBadPadding reports invalid PKCS#7 padding on decryption.
var ErrBadPadding = errors.New("modes: invalid padding")

// Pad appends PKCS#7 padding for the given block size and returns the
// padded slice (the input is not modified).
func Pad(data []byte, blockSize int) []byte {
	n := blockSize - len(data)%blockSize
	out := make([]byte, len(data)+n)
	copy(out, data)
	for i := len(data); i < len(out); i++ {
		out[i] = byte(n)
	}
	return out
}

// Unpad strips and validates PKCS#7 padding.
func Unpad(data []byte, blockSize int) ([]byte, error) {
	if len(data) == 0 || len(data)%blockSize != 0 {
		mPadErrors.Inc()
		return nil, ErrBadPadding
	}
	n := int(data[len(data)-1])
	if n == 0 || n > blockSize || n > len(data) {
		mPadErrors.Inc()
		return nil, ErrBadPadding
	}
	for _, b := range data[len(data)-n:] {
		if int(b) != n {
			mPadErrors.Inc()
			return nil, ErrBadPadding
		}
	}
	return data[:len(data)-n], nil
}

// EncryptECB encrypts src (block-aligned) in electronic-codebook mode.
// ECB is provided as the baseline mode; the protocol layers use CBC.
func EncryptECB(b Block, src []byte) ([]byte, error) {
	bs := b.BlockSize()
	if len(src)%bs != 0 {
		return nil, ErrNotBlockAligned
	}
	dst := make([]byte, len(src))
	for i := 0; i < len(src); i += bs {
		b.Encrypt(dst[i:i+bs], src[i:i+bs])
	}
	mECBEncOps.Inc()
	mECBEncBytes.Add(int64(len(src)))
	return dst, nil
}

// DecryptECB decrypts src (block-aligned) in electronic-codebook mode.
func DecryptECB(b Block, src []byte) ([]byte, error) {
	bs := b.BlockSize()
	if len(src)%bs != 0 {
		return nil, ErrNotBlockAligned
	}
	dst := make([]byte, len(src))
	for i := 0; i < len(src); i += bs {
		b.Decrypt(dst[i:i+bs], src[i:i+bs])
	}
	mECBDecOps.Inc()
	mECBDecBytes.Add(int64(len(src)))
	return dst, nil
}

// EncryptCBC encrypts src (block-aligned) in CBC mode with the given IV.
func EncryptCBC(b Block, iv, src []byte) ([]byte, error) {
	dst := make([]byte, len(src))
	c := newCBCCrypter(b)
	if err := c.EncryptInto(iv, src, dst); err != nil {
		return nil, err
	}
	return dst, nil
}

// DecryptCBC decrypts src (block-aligned) in CBC mode with the given IV.
func DecryptCBC(b Block, iv, src []byte) ([]byte, error) {
	dst := make([]byte, len(src))
	c := newCBCCrypter(b)
	if err := c.DecryptInto(iv, src, dst); err != nil {
		return nil, err
	}
	return dst, nil
}

// CBCCrypter runs CBC over one Block with scratch it owns. Scratch passed
// through the Block interface escapes, so on-stack scratch would be
// heap-allocated on every call; a record path that seals millions of
// records holds a CBCCrypter and pays for its scratch once per connection
// direction instead.
//
// A CBCCrypter is not safe for concurrent use.
type CBCCrypter struct {
	b     Block
	multi multiDecrypter // b, when it decrypts several blocks per call
	tmp   []byte         // one block, or two when multi is set
}

// multiDecrypter is a Block that decrypts each whole block of src into
// dst in one call, overlapping independent blocks (des, 3DES). CBC
// decryption hands it two blocks at a time.
type multiDecrypter interface {
	DecryptBlocks(dst, src []byte)
}

// NewCBCCrypter creates reusable CBC scratch for b.
func NewCBCCrypter(b Block) *CBCCrypter {
	c := newCBCCrypter(b)
	return &c
}

// newCBCCrypter sizes the scratch for b. A one-shot caller keeps the
// CBCCrypter itself on its stack.
func newCBCCrypter(b Block) CBCCrypter {
	c := CBCCrypter{b: b}
	lanes := 1
	if m, ok := b.(multiDecrypter); ok {
		c.multi, lanes = m, 2
	}
	c.tmp = make([]byte, lanes*b.BlockSize())
	return c
}

// checkCBC validates the IV, alignment and dst length of one CBC call.
func checkCBC(bs int, iv, src, dst []byte) error {
	if len(iv) != bs {
		return fmt.Errorf("modes: IV length %d != block size %d", len(iv), bs)
	}
	if len(src)%bs != 0 {
		return ErrNotBlockAligned
	}
	if len(dst) < len(src) {
		return fmt.Errorf("modes: dst length %d < src length %d", len(dst), len(src))
	}
	return nil
}

// EncryptInto encrypts src (block-aligned) in CBC mode into dst, which
// must be at least len(src) bytes and may alias src exactly (in-place
// encryption). It allocates nothing.
func (c *CBCCrypter) EncryptInto(iv, src, dst []byte) error {
	bs := c.b.BlockSize()
	if err := checkCBC(bs, iv, src, dst); err != nil {
		return err
	}
	tmp := c.tmp[:bs]
	prev := iv
	for i := 0; i < len(src); i += bs {
		bitutil.XORBytes(tmp, src[i:i+bs], prev)
		c.b.Encrypt(dst[i:i+bs], tmp)
		prev = dst[i : i+bs]
	}
	mCBCEncOps.Inc()
	mCBCEncBytes.Add(int64(len(src)))
	return nil
}

// DecryptInto decrypts src (block-aligned) in CBC mode into dst, which
// must be at least len(src) bytes and may alias src exactly (in-place
// decryption). It allocates nothing and never writes iv.
//
// It walks backwards, as crypto/cipher's CBC decrypter does: plaintext
// block i needs ciphertext block i-1, which an in-place pass has not yet
// overwritten. Each step decrypts the trailing chunk of up to len(c.tmp)
// bytes, two blocks for a multiDecrypter and one otherwise, so an odd
// count leaves a single block at the front.
func (c *CBCCrypter) DecryptInto(iv, src, dst []byte) error {
	bs := c.b.BlockSize()
	if err := checkCBC(bs, iv, src, dst); err != nil {
		return err
	}
	for end := len(src); end > 0; {
		start := max(end-len(c.tmp), 0)
		if c.multi != nil {
			c.multi.DecryptBlocks(c.tmp, src[start:end])
		} else {
			c.b.Decrypt(c.tmp, src[start:end])
		}
		for i := end - bs; i >= start; i -= bs {
			prev := iv
			if i > 0 {
				prev = src[i-bs : i]
			}
			bitutil.XORBytes(dst[i:i+bs], c.tmp[i-start:], prev)
		}
		end = start
	}
	mCBCDecOps.Inc()
	mCBCDecBytes.Add(int64(len(src)))
	return nil
}

// CTR is a counter-mode stream built over a block cipher. It implements
// XORKeyStream like a stream cipher and may process data of any length.
type CTR struct {
	b       Block
	counter []byte
	stream  []byte
	used    int
}

// NewCTR creates a counter-mode stream with the given initial counter
// block (its length must equal the cipher block size).
func NewCTR(b Block, iv []byte) (*CTR, error) {
	if len(iv) != b.BlockSize() {
		return nil, fmt.Errorf("modes: IV length %d != block size %d", len(iv), b.BlockSize())
	}
	c := &CTR{
		b:       b,
		counter: append([]byte{}, iv...),
		stream:  make([]byte, b.BlockSize()),
		used:    b.BlockSize(),
	}
	return c, nil
}

// XORKeyStream XORs src with the counter-mode keystream into dst.
func (c *CTR) XORKeyStream(dst, src []byte) {
	mCTROps.Inc()
	mCTRBytes.Add(int64(len(src)))
	for i := range src {
		if c.used == len(c.stream) {
			c.b.Encrypt(c.stream, c.counter)
			c.used = 0
			// Increment the counter big-endian.
			for j := len(c.counter) - 1; j >= 0; j-- {
				c.counter[j]++
				if c.counter[j] != 0 {
					break
				}
			}
		}
		dst[i] = src[i] ^ c.stream[c.used]
		c.used++
	}
}
