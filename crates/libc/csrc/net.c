// Datagram sockets over the VM's simulated network. Addresses are
// (node, port) pairs. recvfrom on an empty socket reports EAGAIN at once,
// unless set_recv_deadline (misc.c, with the clock) armed a receive
// deadline on the socket: then it blocks until a datagram arrives, which
// it returns, or virtual time passes the deadline, when it reports EAGAIN
// — a receive timeout kept in virtual time.

int socket(int domain, int type, int protocol) {
    int s = __sys(SYS_SOCKET);
    if (s >= 0) { return s; }
    errno = EMFILE;
    return -1;
}

int bind(int s, int port) {
    int r = __sys(SYS_BIND, s, port);
    if (r >= 0) { return 0; }
    if (r == -EBADF) { errno = EBADF; return -1; }
    errno = EINVAL;
    return -1;
}

int sendto(int s, int buf, int len, int node, int port) {
    int r = __sys(SYS_SENDTO, s, buf, len, node, port);
    if (r >= 0) { return r; }
    if (r == -EBADF) { errno = EBADF; return -1; }
    if (r == -ECONNREFUSED) { errno = ECONNREFUSED; return -1; }
    if (r == -EMSGSIZE) { errno = EMSGSIZE; return -1; }
    errno = EINVAL;
    return -1;
}

int recvfrom(int s, int buf, int cap, int srcinfo) {
    int r = __sys(SYS_RECVFROM, s, buf, cap, srcinfo);
    if (r >= 0) { return r; }
    if (r == -EAGAIN) { errno = EAGAIN; return -1; }
    if (r == -EBADF) { errno = EBADF; return -1; }
    if (r == -ECONNREFUSED) { errno = ECONNREFUSED; return -1; }
    errno = EINVAL;
    return -1;
}
