package wire

// Request opcodes.
const (
	OpEcho byte = iota + 1
	OpHalt
)

// Request is what a client method hands to the wire.
type Request struct {
	Op      byte
	Payload []byte
}
