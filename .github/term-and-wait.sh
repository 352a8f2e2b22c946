# Sourced by the serve and distributed CI smokes.
#
# term_and_wait PID: sends SIGTERM to the background job PID and fails
# (killing it) if it is still alive 10 s later; otherwise returns the
# job's own exit status, as `wait PID` does.
term_and_wait() {
    local pid=$1
    kill -TERM "$pid"
    for _ in $(seq 1 100); do
        kill -0 "$pid" 2>/dev/null || break
        sleep 0.1
    done
    if kill -0 "$pid" 2>/dev/null; then
        echo "process $pid still running 10 s after SIGTERM" >&2
        kill -KILL "$pid"
        return 1
    fi
    wait "$pid"
}
