package remote

import wire "rstore/internal/xwire/wire"

type Client struct{}

func (c *Client) Echo(payload []byte) wire.Request {
	return wire.Request{Op: wire.OpEcho, Payload: payload}
}
