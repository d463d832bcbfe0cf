"""A listener that answers each request line with the next recorded reply.

The traced wire runs record a server's raw replies on a bare socket and
replay them from here, so that ``ServerClient`` can be timed parsing
exactly those bytes with no server work behind them — in a process of
its own, so that sending does not share the client's interpreter lock.

Usage: ``canned.py FILE`` — FILE holds the replies back to back; the
port is printed on the first line of stdout.
"""

from __future__ import annotations

import socket
import sys

END = b"\nEND\n"


def main() -> int:
    with open(sys.argv[1], "rb") as f:
        replies = [r + END for r in f.read().split(END) if r]
    with socket.create_server(("127.0.0.1", 0)) as listener:
        print(listener.getsockname()[1], flush=True)
        conn, _peer = listener.accept()
        with conn, conn.makefile("rb") as requests:
            for k, line in enumerate(requests):
                if line.strip() == b"CLOSE":
                    conn.sendall(b"BYE\n")
                    break
                conn.sendall(replies[k % len(replies)])
    return 0


if __name__ == "__main__":
    sys.exit(main())
