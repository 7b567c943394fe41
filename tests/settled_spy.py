"""Run _probe_faces and tell whether its stopping rule fired."""

from unittest import mock

from facetforge.verifier import _FaceLog, _probe_faces


def probe_faces_and_fired(ctx, x0, dirs):
    """_probe_faces's log on the rays from x0 along dirs, and whether a
    _FaceLog.settled check returned True, which stops refinement early."""
    answers = []
    settled = _FaceLog.settled

    def spy(log, top):
        answers.append(settled(log, top))
        return answers[-1]

    with mock.patch.object(_FaceLog, "settled", spy):
        log = _probe_faces(ctx, x0, dirs)
    return log, any(answers)
