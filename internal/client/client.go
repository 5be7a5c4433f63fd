// Package client is a Go client for the RStore HTTP application server
// (internal/server): typed wrappers over the JSON API so remote callers get
// the same surface as the embedded engine — context-aware calls and, for
// the set-returning queries, the same cursor shape as core.Store, decoding
// the server's NDJSON stream incrementally instead of materializing the
// response.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"iter"
	"net/http"
	"net/url"
	"sort"
	"strings"

	"rstore/internal/server"
	"rstore/internal/types"
)

// Client talks to one application server.
type Client struct {
	base string
	http *http.Client
}

// New creates a client for the server at baseURL (e.g. "http://host:8080").
// httpClient may be nil (http.DefaultClient).
func New(baseURL string, httpClient *http.Client) *Client {
	if httpClient == nil {
		httpClient = http.DefaultClient
	}
	return &Client{base: strings.TrimRight(baseURL, "/"), http: httpClient}
}

// APIError is a non-2xx response.
type APIError struct {
	Status  int
	Message string
}

func (e *APIError) Error() string {
	return fmt.Sprintf("rstore client: HTTP %d: %s", e.Status, e.Message)
}

// Is maps 404 responses onto the store's sentinel so errors.Is works across
// the wire.
func (e *APIError) Is(target error) bool {
	switch target {
	//lint:rstore-vet errclass: Is(target) implements the errors.Is protocol itself — identity against the target sentinel is the contract here
	case types.ErrNotFound, types.ErrVersionUnknown:
		return e.Status == http.StatusNotFound
	}
	return false
}

// send issues one request and returns the successful response; a non-2xx
// status is drained into an APIError.
func (c *Client) send(ctx context.Context, method, path string, in any) (*http.Response, error) {
	var body io.Reader
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			return nil, err
		}
		body = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return nil, err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode >= 300 {
		defer resp.Body.Close()
		var apiErr struct {
			Error string `json:"error"`
		}
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		if json.Unmarshal(msg, &apiErr) == nil && apiErr.Error != "" {
			return nil, &APIError{Status: resp.StatusCode, Message: apiErr.Error}
		}
		return nil, &APIError{Status: resp.StatusCode, Message: string(msg)}
	}
	return resp, nil
}

// do runs one buffered JSON exchange.
func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	resp, err := c.send(ctx, method, path, in)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// Commit creates a version from a parent (-1 for the root) and optionally
// advances a branch.
func (c *Client) Commit(ctx context.Context, parent int64, puts map[string][]byte, deletes []string, branch string) (types.VersionID, error) {
	var out server.CommitResponse
	err := c.do(ctx, http.MethodPost, "/commit", server.CommitRequest{
		Parent: parent, Puts: puts, Deletes: deletes, Branch: branch,
	}, &out)
	if err != nil {
		return types.InvalidVersion, err
	}
	return types.VersionID(out.Version), nil
}

// CommitMerge creates a merge commit; parents[0] is primary.
func (c *Client) CommitMerge(ctx context.Context, parents []int64, puts map[string][]byte, deletes []string) (types.VersionID, error) {
	if len(parents) == 0 {
		return types.InvalidVersion, fmt.Errorf("rstore client: merge needs parents")
	}
	var out server.CommitResponse
	err := c.do(ctx, http.MethodPost, "/commit", server.CommitRequest{
		Parent: parents[0], Parents: parents[1:], Puts: puts, Deletes: deletes,
	}, &out)
	if err != nil {
		return types.InvalidVersion, err
	}
	return types.VersionID(out.Version), nil
}

func decodeRecord(r *server.RecordJSON) types.Record {
	return types.Record{
		CK:    types.CompositeKey{Key: types.Key(r.Key), Version: types.VersionID(r.OriginVersion)},
		Value: r.Value,
	}
}

// Cursor streams one query's records, decoding the server's NDJSON
// response incrementally: the first record is usable while the server is
// still fetching later chunks, and abandoning the cursor (or cancelling
// the request's context) tears the connection down, which stops the
// server- and node-side work.
//
// Iterate with Records (usable once); the response body closes itself when
// the sequence ends, but an abandoned cursor must be Closed (Records'
// defer-friendly twin All does both). Stats is valid once the sequence
// ended cleanly.
type Cursor struct {
	body  io.ReadCloser
	dec   *json.Decoder
	stats server.StatsJSON
	spent bool
}

func newCursor(body io.ReadCloser) *Cursor {
	return &Cursor{body: body, dec: json.NewDecoder(body)}
}

// Records returns the record sequence. It may be ranged over once; a
// second iteration yields only an error. Mid-stream server failures and
// transport errors terminate the sequence as the final pair's error.
func (cur *Cursor) Records() iter.Seq2[types.Record, error] {
	return func(yield func(types.Record, error) bool) {
		if cur.spent {
			yield(types.Record{}, errors.New("rstore client: cursor already iterated"))
			return
		}
		cur.spent = true
		defer cur.body.Close()
		for {
			var line server.StreamLine
			if err := cur.dec.Decode(&line); err != nil {
				if err == io.EOF {
					err = fmt.Errorf("rstore client: stream truncated (no stats trailer): %w", io.ErrUnexpectedEOF)
				}
				yield(types.Record{}, err)
				return
			}
			switch {
			case line.Record != nil:
				if !yield(decodeRecord(line.Record), nil) {
					return
				}
			case line.Stats != nil:
				cur.stats = *line.Stats
				return
			case line.Error != "":
				yield(types.Record{}, fmt.Errorf("rstore client: server: %s", line.Error))
				return
			default:
				yield(types.Record{}, fmt.Errorf("rstore client: empty stream line"))
				return
			}
		}
	}
}

// Stats reports the query's retrieval statistics; it is the zero value
// until the record sequence has ended with its stats trailer.
func (cur *Cursor) Stats() server.StatsJSON { return cur.stats }

// All drains the cursor into a slice and closes it. On error the records
// delivered before it are returned alongside.
func (cur *Cursor) All() ([]types.Record, server.StatsJSON, error) {
	var out []types.Record
	for r, err := range cur.Records() {
		if err != nil {
			return out, cur.stats, err
		}
		out = append(out, r)
	}
	return out, cur.stats, nil
}

// Close releases the cursor's connection without draining it; safe to call
// at any point (including after exhaustion).
func (cur *Cursor) Close() error {
	cur.spent = true
	return cur.body.Close()
}

// query opens one streaming query cursor.
func (c *Client) query(ctx context.Context, path string) (*Cursor, error) {
	resp, err := c.send(ctx, http.MethodGet, path, nil)
	if err != nil {
		return nil, err
	}
	return newCursor(resp.Body), nil
}

// GetVersion streams every record of a version (by id or branch name).
func (c *Client) GetVersion(ctx context.Context, ref string) (*Cursor, error) {
	return c.query(ctx, "/version/"+url.PathEscape(ref))
}

// GetVersionAll retrieves every record of a version as one slice, sorted
// by composite key like core's same-named wrapper — the buffered
// convenience form of GetVersion.
func (c *Client) GetVersionAll(ctx context.Context, ref string) ([]types.Record, server.StatsJSON, error) {
	cur, err := c.GetVersion(ctx, ref)
	if err != nil {
		return nil, server.StatsJSON{}, err
	}
	recs, stats, err := cur.All()
	types.SortRecords(recs)
	return recs, stats, err
}

// GetRecord retrieves one key within a version.
func (c *Client) GetRecord(ctx context.Context, ref string, key types.Key) (types.Record, server.StatsJSON, error) {
	var qr server.QueryResponse
	path := "/version/" + url.PathEscape(ref) + "/record/" + url.PathEscape(string(key))
	if err := c.do(ctx, http.MethodGet, path, nil, &qr); err != nil {
		return types.Record{}, server.StatsJSON{}, err
	}
	if len(qr.Records) == 0 {
		return types.Record{}, qr.Stats, &APIError{Status: http.StatusNotFound, Message: "no record"}
	}
	return decodeRecord(&qr.Records[0]), qr.Stats, nil
}

// GetRange streams a version's records with keys in [lo, hi).
func (c *Client) GetRange(ctx context.Context, ref string, lo, hi types.Key) (*Cursor, error) {
	path := fmt.Sprintf("/version/%s/range?lo=%s&hi=%s",
		url.PathEscape(ref), url.QueryEscape(string(lo)), url.QueryEscape(string(hi)))
	return c.query(ctx, path)
}

// GetRangeAll retrieves a version's records with keys in [lo, hi) as one
// slice, sorted by composite key — the buffered convenience form of
// GetRange.
func (c *Client) GetRangeAll(ctx context.Context, ref string, lo, hi types.Key) ([]types.Record, server.StatsJSON, error) {
	cur, err := c.GetRange(ctx, ref, lo, hi)
	if err != nil {
		return nil, server.StatsJSON{}, err
	}
	recs, stats, err := cur.All()
	types.SortRecords(recs)
	return recs, stats, err
}

// GetHistory streams every revision of a key.
func (c *Client) GetHistory(ctx context.Context, key types.Key) (*Cursor, error) {
	return c.query(ctx, "/history/"+url.PathEscape(string(key)))
}

// GetHistoryAll retrieves every revision of a key as one slice ordered by
// origin version — the buffered convenience form of GetHistory.
func (c *Client) GetHistoryAll(ctx context.Context, key types.Key) ([]types.Record, server.StatsJSON, error) {
	cur, err := c.GetHistory(ctx, key)
	if err != nil {
		return nil, server.StatsJSON{}, err
	}
	recs, stats, err := cur.All()
	sort.Slice(recs, func(i, j int) bool { return recs[i].CK.Version < recs[j].CK.Version })
	return recs, stats, err
}

// Diff reports the record-level difference between two versions.
func (c *Client) Diff(ctx context.Context, a, b types.VersionID) (*server.DiffJSON, error) {
	var out server.DiffJSON
	path := fmt.Sprintf("/diff?a=%d&b=%d", a, b)
	if err := c.do(ctx, http.MethodGet, path, nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Branches lists branch tips (-1 = unset). Branches whose tip lookup
// failed server-side are reported in the second result instead of being
// silently dropped.
func (c *Client) Branches(ctx context.Context) (map[string]int64, map[string]string, error) {
	var out server.BranchesResponse
	if err := c.do(ctx, http.MethodGet, "/branches", nil, &out); err != nil {
		return nil, nil, err
	}
	return out.Branches, out.Errors, nil
}

// SetBranch points a branch at a version.
func (c *Client) SetBranch(ctx context.Context, name string, v types.VersionID) error {
	return c.do(ctx, http.MethodPut, "/branch/"+url.PathEscape(name),
		map[string]int64{"version": int64(v)}, nil)
}

// Flush forces online partitioning of pending versions.
func (c *Client) Flush(ctx context.Context) error {
	return c.do(ctx, http.MethodPost, "/flush", struct{}{}, nil)
}

// Stats returns server statistics.
func (c *Client) Stats(ctx context.Context) (map[string]any, error) {
	var out map[string]any
	if err := c.do(ctx, http.MethodGet, "/stats", nil, &out); err != nil {
		return nil, err
	}
	return out, nil
}
