package wire

const (
	OpEcho byte = iota + 1
	// The escape below carries no reason, so it must be reported and must
	// not suppress OpGone's findings.
	//lint:rstore-vet wiresym:
	OpGone
)

// Request is what a client method hands to the wire.
type Request struct {
	Op      byte
	Payload []byte
}
